"""Every top-level definition in ``src/dpkf`` is reached from the package's own
code, not only from tests or from ``__init__``'s re-exports: code that only
tests call moves into ``tests/`` or is deleted. A name counts as reached when
another top-level statement of a module other than ``__init__`` uses it, as a
name or as an attribute, or when ``cli.main`` dispatches to it by name."""

import argparse
import ast
import pathlib

import dpkf
from dpkf import cli

# Each waits on a ROADMAP item: the benchmark's tracer binds the first six
# (item 2, after item 1b), and full-kf's surfaces take the fixed point (item 9).
ONLY_TESTS_REACH = {
    "disk.dpsgd_step",
    "disk.full_filter_step",
    "objectives.two_point_grads",
    "privacy.clip_batch",
    "privacy.rdp_subsampled",
    "kalman.kf_gain_multiplicative",
    "kalman.scalar_fixed_point",
}


def defined(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def used(node: ast.stmt) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_the_listed_definitions_are_reached_from_tests_alone():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    reached = {"cmd_" + name.replace("-", "_") for name in subcommands.choices}
    definitions = set()
    for path in sorted(pathlib.Path(dpkf.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            names = defined(node)
            definitions |= {(path.stem, name) for name in names}
            reached |= used(node) - names
    unreached = {f"{module}.{name}" for module, name in definitions if name not in reached}
    assert unreached == ONLY_TESTS_REACH
