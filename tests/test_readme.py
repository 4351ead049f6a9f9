"""Every ``dpkf`` name the README's module table and CLI section cite resolves.

A code span cites a name when it is a dotted identifier path, optionally
called (``disk_step(state, ...)``); math symbols (a letter with an optional
digit and subscript: ``B``, ``x0``, ``k_inf``) are not names. A name resolves
when it is
- an attribute path from ``dpkf``, ``np``, a ``dpkf`` module or a name a
  module defines (``harness.resolve_optimizer``, ``FullFilterConfig.gains``);
  a bare name in a module-table row is a name of the row's module or a
  member of a class it defines (``evaluate`` in the ``dpkf.objectives``
  row), and one in the CLI section a name of any module or a member of a
  class the section cites (``from_dict``);
- a config key path (``privacy.epsilon``) or one of its keys (``sigma_dp``):
  ``harness.CONFIG_KEYS``, each section's keys from its table or dataclass;
- a value the program reads or a key it writes: a subcommand, an algorithm,
  a clip variant, a base optimizer, a CSV column, a key of the JSON ``train``
  or ``bounds`` prints, or an environment variable ``cli`` reads;
- a builtin.
``NOT_DPKF`` lists the spans that name a caller's argument or a numpy class.
"""

import argparse
import builtins
import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import json
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import dpkf
from dpkf import cli, disk, harness, privacy

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = {
    "module table": ("## What's in the box", "## Install and test"),
    "CLI": ("## CLI", "## Privacy accounting conventions"),
}
NOT_DPKF = {"noise", "theta", "Generator", "cfg.base", "cfg.kappa", "cfg.gamma", "rng.standard_normal"}

MODULES = {
    m.name: importlib.import_module(f"dpkf.{m.name}") for m in pkgutil.iter_modules(dpkf.__path__)
}
ROOTS = {"dpkf": dpkf, "np": np, **MODULES}
for module in MODULES.values():
    ROOTS.update({k: v for k, v in vars(module).items() if not k.startswith("__")})


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


SECTION_KEYS = {
    "objective": set().union(*harness.OBJECTIVE_KEYS.values()),
    "optimizer": _fields(disk.DiskConfig),
    "privacy": _fields(privacy.PrivacyBudget),
    "full_filter": set(harness.FULL_FILTER_KEYS + harness.SHARED_FILTER_KEYS),
}
CONFIG_KEYS = set(harness.CONFIG_KEYS).union(*SECTION_KEYS.values())
SUBCOMMANDS = next(
    a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)
VALUES = {
    *SUBCOMMANDS, *harness.ALGORITHMS, *disk.CLIP_VARIANTS, *disk.BASE_OPTIMIZERS,
    *re.findall(r'os\.environ\.get\("(\w+)"', inspect.getsource(cli)),
    *",".join((harness.TRACE_HEADER, harness.COMPARISON_HEADER, harness.SWEEP_HEADER)).split(","),
}

MODULE_ROW = re.compile(r"^\| `dpkf\.(\w+)` \|(.*)$", flags=re.M)
NAME = re.compile(r"([A-Za-z_][\w.]*)(\([^()]*\))?")
MATH = re.compile(r"[A-Za-z]\d?(_\w+)?")


def _keys(obj) -> set[str]:
    """The keys of a JSON report, at every depth."""
    if not isinstance(obj, dict):
        return set()
    return set(obj).union(*map(_keys, obj.values()))


@pytest.fixture(scope="module")
def report_keys(tmp_path_factory):
    """The keys ``train`` prints, and those ``bounds --trace`` prints with a
    privacy target, on a small logistic run."""
    out = tmp_path_factory.mktemp("readme")
    config = out / "cfg.json"
    config.write_text(json.dumps({
        "objective": {"kind": "logistic-regression", "n": 40, "p": 3},
        "optimizer": {"eta": 0.1, "clip": 1.0}, "privacy": {"epsilon": 4.0},
        "T": 3, "B": 10, "f_star_steps": 20, "outdir": str(out),
    }))
    keys = set()
    for argv in (["train"], ["bounds", "--trace", str(out / "trace.csv")]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([*argv, "--config", str(config)]) == 0
        keys |= _keys(json.loads(buf.getvalue()))
    return keys


def cited_names(text: str) -> set[str]:
    """The identifier paths of the code spans in ``text``, call arguments cut."""
    names = set()
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        match = NAME.fullmatch(" ".join(span.split()))
        if match and not MATH.fullmatch(match[1]):
            names.add(match[1])
    return names


def _has_member(cls, name: str) -> bool:
    return hasattr(cls, name) or dataclasses.is_dataclass(cls) and name in _fields(cls)


def resolves(name: str, scope=ROOTS, classes=(), words=frozenset()) -> bool:
    """Whether ``name`` resolves; a bare name is looked up in ``scope`` (a
    module's names; every module's by default), among the members of
    ``classes`` and in ``words``, the values and keys the program uses."""
    head, *rest = name.split(".")
    if rest:
        try:
            functools.reduce(getattr, rest, ROOTS[head])
            return True
        except (KeyError, AttributeError):
            return head in SECTION_KEYS and len(rest) == 1 and rest[0] in SECTION_KEYS[head]
    return (
        name in scope or any(_has_member(c, name) for c in classes)
        or name in CONFIG_KEYS or name in words or hasattr(builtins, name)
    )


def section(title: str) -> str:
    text = README.read_text()
    start, end = SECTIONS[title]
    return text[text.index(start) : text.index(end)]


def test_module_table_rows_cite_only_names_that_resolve(report_keys):
    rows = MODULE_ROW.findall(section("module table"))
    assert rows, "no module rows found in the README's module table"
    for name, text in rows:
        module = MODULES[name]
        classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
        missing = sorted(
            n for n in cited_names(text) - NOT_DPKF
            if not resolves(n, set(vars(module)), classes, VALUES | report_keys)
        )
        assert not missing, f"the README's {module.__name__} row cites names it does not define: {missing}"


def test_module_table_rows_are_at_most_450_characters():
    """A row says what its module offers, whole line counted; the invariants
    live in the module docstrings and tests."""
    lengths = {row[1]: len(row[0]) for row in MODULE_ROW.finditer(section("module table"))}
    assert lengths, "no module rows found in the README's module table"
    long = {name: n for name, n in lengths.items() if n > 450}
    assert not long, f"README module rows over 450 characters: {long}"


def test_cli_section_cites_only_names_that_resolve(report_keys):
    names = cited_names(section("CLI"))
    classes = [ROOTS[n.split(".")[0]] for n in names if inspect.isclass(ROOTS.get(n.split(".")[0]))]
    assert classes, "the README's CLI section cites no dpkf class"
    missing = sorted(n for n in names - NOT_DPKF if not resolves(n, ROOTS, classes, VALUES | report_keys))
    assert not missing, f"the README's CLI section cites names dpkf does not define: {missing}"


def test_every_exempt_span_is_cited():
    cited = set().union(*(cited_names(section(t)) for t in SECTIONS))
    assert NOT_DPKF <= cited, f"exempt spans no longer cited: {sorted(NOT_DPKF - cited)}"


def test_the_name_check_refuses_a_deleted_name():
    from dpkf import objectives

    assert resolves("objectives.minibatches") and resolves("GradFactors.mean")
    assert resolves("privacy.epsilon") and resolves("evaluate", classes=[objectives.Objective])
    assert not resolves("objectives._row_mean") and not resolves("no_such_step")
    assert not resolves("privacy.sigma_dp")  # a key of another section
    assert not resolves("evaluate")  # a method, outside its class
    assert not resolves("disk_step", scope=set(vars(objectives)))  # another module's name
    assert not resolves("data")  # a string src spells, but no key or value
