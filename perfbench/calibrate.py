"""Fixed reference work for the scan benchmark's speed normalization.

Run as a child process next to every timed scan. It starts an interpreter
and does scanner-like work with the standard library only (build and walk
an object tree, JSON round trip, regular expressions), so its wall time
moves with the host's speed but never with a change to jcascan. Prints a
checksum so the caller can tell the work really ran.
"""

import json
import random
import re


class _Node:
    __slots__ = ("kind", "children", "value")

    def __init__(self, kind, children, value):
        self.kind = kind
        self.children = children
        self.value = value


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0:
        return _Node("leaf", [], rng.random())
    return _Node(f"node{depth % 5}",
                 [_tree(rng, depth - 1) for _ in range(3)], None)


def work() -> int:
    rng = random.Random(0)
    total = 0
    for _ in range(3):
        stack = [_tree(rng, 8)]
        while stack:
            node = stack.pop()
            total += len(node.kind)
            stack.extend(node.children)
        text = json.dumps([[rng.random(), f"k{i}"] for i in range(20000)])
        total += len(re.findall(r"k\d+", text)) + len(json.loads(text))
    return total


if __name__ == "__main__":
    print(work())
