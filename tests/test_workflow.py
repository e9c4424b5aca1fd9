"""The CI workflow's steps that run tests by node id name tests that exist,
so that a renamed test fails here and not only in CI."""

import importlib
import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "test.yml"
# Node ids as the workflow names them: tests/<file>.py::<Class>::<test>.
NODE_IDS = re.findall(r"\btests/\w+\.py(?:::\w+)+", WORKFLOW.read_text())


def test_the_workflow_names_tests_by_node_id():
    assert NODE_IDS


@pytest.mark.parametrize("node_id", NODE_IDS)
def test_node_id_resolves(node_id):
    path, *names = node_id.split("::")
    target = importlib.import_module(Path(path).stem)
    for name in names:
        target = getattr(target, name, None)
        assert target is not None, f"{node_id}: {name} not found"
    assert names[-1].startswith("test_") and callable(target)
