"""Static guard for the engine's tracked mutation paths.

The incremental invariant check looks only at the pods and nodes the engine
marked touched, so it is sound only if no other module of scalesim changes a
pod's state or binding, or a node's state, bound pods or used millicores.
Time must only move forward, so only the engine's `step` sets the cluster's
`now`. This test parses every module and pins that those changes happen in
engine.py alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scalesim"

GUARDED_FIELDS = {"state", "bound_node", "used", "bound_pods", "now"}
GUARDED_SET_CALLS = {"add", "discard", "remove", "clear", "pop", "update",
                     "difference_update", "intersection_update",
                     "symmetric_difference_update"}


def untracked_mutations(tree: ast.AST) -> list[str]:
    """Each assignment to a guarded field, each in-place change of a
    `bound_pods` set and each node transition, as `line: source`."""
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in GUARDED_FIELDS:
                    found.append(f"{node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (node.func.attr in GUARDED_SET_CALLS and isinstance(owner, ast.Attribute)
                    and owner.attr == "bound_pods") or node.func.attr == "transition":
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_engine_mutates_tracked_fields():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "engine.py" in modules
    offenders = {
        path.name: hits
        for path in modules if path.name != "engine.py"
        for hits in [untracked_mutations(ast.parse(path.read_text()))] if hits
    }
    assert offenders == {}


def test_the_guard_sees_each_kind_of_mutation():
    source = """
pod.state = PodState.RUNNING
pod.bound_node = None
node.used += 250
a.b.bound_pods.add(pid)
node.bound_pods.clear()
node.transition(NodeState.READY)
self.state = state
state.now = 60
"""
    assert len(untracked_mutations(ast.parse(source))) == 8
    assert untracked_mutations(
        ast.parse("x = pod.state\nnode.bound_pods.copy()\nnow = state.now\n")) == []
