"""Static guard for the engine's tracked mutation paths.

The incremental invariant check looks only at the pods and nodes the engine
marked touched, so it is sound only if no other module of scalesim changes a
pod's state, binding or request, or a node's state, bound pods or used
millicores. Its tally also trusts that the pod index, the pending set and the
node index (`pods`, `pending`, `nodes`) change only in the engine. Time must
only move forward, so only the engine's `step` sets the cluster's `now`. This
test parses every module and pins that those changes happen in engine.py
alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scalesim"

GUARDED_FIELDS = {"state", "bound_node", "used", "bound_pods", "now",
                  "cpu_request_millicores"}
GUARDED_SET_CALLS = {"add", "discard", "remove", "clear", "pop", "update",
                     "difference_update", "intersection_update",
                     "symmetric_difference_update"}
GUARDED_INDEXES = {"pods", "pending", "nodes"}
GUARDED_INDEX_CALLS = {"append", "extend", "insert", "remove", "pop", "clear", "sort",
                       "reverse", "update", "setdefault", "popitem"}


def untracked_mutations(tree: ast.AST) -> list[str]:
    """Each assignment to a guarded field, each in-place change of a
    `bound_pods` set or of a `pods`, `pending` or `nodes` index, and each node
    transition, as `line: source`."""
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
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute) and node.value.attr in GUARDED_INDEXES):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            call, owner = node.func.attr, node.func.value
            field = owner.attr if isinstance(owner, ast.Attribute) else None
            if (call in GUARDED_SET_CALLS and field == "bound_pods"
                    or call in GUARDED_INDEX_CALLS and field in GUARDED_INDEXES
                    or call == "transition"):
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
pod.cpu_request_millicores = 1001
state.pods[pod.pod_id] = pod
del state.pending[pod.pod_id]
state.nodes[node.node_id] = node
pool.nodes.append(node)
state.pools["main"].nodes.remove(node)
state.pods.pop(pid)
state.pending.update(extra)
state.nodes.setdefault(node.node_id, node)
"""
    assert len(untracked_mutations(ast.parse(source))) == 17
    assert untracked_mutations(ast.parse(
        "x = pod.state\nnode.bound_pods.copy()\nnow = state.now\n"
        "pod = state.pods[pid]\nrequest = pod.cpu_request_millicores\n"
        "node = state.nodes.get(nid)\nn = len(pool.nodes)\nready = pool.nodes.copy()\n")) == []
