"""Every public function, class, method and property of the library has a
caller outside tests.

Code that only tests call is either given a place in the program or deleted.
A module-level name counts as called when some module of src/ or perfbench/
refers to it, as a bare name or as an attribute, outside the name's own
definition. Import lines and strings do not count. The few names kept
without such a caller are listed below with the reason each stays.

A method or property counts as called when a CLI run enters it: the
reduced test_c10 config of every subcommand, and one unbiasedness config
that sets toy.posterior and toy.logits, run in this process under a profile
hook that records each code object entered. A rule on attribute names
cannot see a test-only method that shares its name with a used method of
another class; the code objects tell the two apart.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import vargrad_lab

from test_acceptance import C10_REDUCED, run_subcommand

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vargrad_lab"

KEPT = {
    "delta_ratio_bound": "the paper's bound on the correction ratio, checked by test_c06",
    "read_csv": "the reader of the CSV format write_csv writes",
}

# (experiment, config lines without experiment and seed) of the CLI runs
# whose entered code covers the class members
CLI_RUNS = [*C10_REDUCED.items()] + [
    (
        "unbiasedness",
        [
            "toy.dims = 2",
            "toy.posterior = [0.1, 0.2, 0.3, 0.4]",
            "toy.logits = [0.5, -1.0]",
            "toy.s = 3",
            "toy.replicates = 500",
        ],
    )
]


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def public_definitions() -> dict[str, Path]:
    """Public module-level functions and classes."""
    names = {}
    for path, tree in _trees(sorted(PACKAGE.rglob("*.py"))):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = path
    return names


def references() -> set[str]:
    """The bare names and the attribute names used in src/ and perfbench/,
    except inside the definition of the same name."""
    used = set()
    paths = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for _, tree in _trees(paths):
        owner = {}  # node -> the name of the definition it sits in
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                for node in ast.walk(top):
                    owner[id(node)] = top.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != owner.get(id(node)):
                used.add(name)
    return used


def uncalled() -> set[str]:
    """Public module-level definitions nothing refers to."""
    used = references()
    return {name for name in public_definitions() if name not in used}


def class_members() -> dict[str, object]:
    """The code object of each public method and property defined in a
    class body of src/, as 'Class.member'."""
    members = {}
    for info in pkgutil.walk_packages(vargrad_lab.__path__, "vargrad_lab."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, attr in vars(cls).items():
                fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if not name.startswith("_") and hasattr(fn, "__code__"):
                    members[f"{cls.__qualname__}.{name}"] = fn.__code__
    return members


def entered_code(tmp_path) -> set:
    """The code objects of every Python function the CLI_RUNS enter."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for i, (name, lines) in enumerate(CLI_RUNS):
            lines = [f"experiment = {name}", "seed = 42"] + lines
            run_subcommand(tmp_path, name, lines, tmp_path / f"run{i}.csv")
    finally:
        sys.setprofile(previous)
    return entered


def test_every_public_name_has_a_caller_outside_tests():
    defined = public_definitions()
    orphans = {
        name: str(defined[name].relative_to(ROOT)) for name in uncalled() if name not in KEPT
    }
    assert not orphans, f"only tests call these; give them a caller or delete them: {orphans}"


def test_kept_names_still_need_their_entry():
    defined, orphans = public_definitions(), uncalled()
    stale = sorted(name for name in KEPT if name not in defined or name not in orphans)
    assert not stale, f"remove these from KEPT: {stale}"


def test_every_public_member_is_entered_by_a_cli_run(tmp_path):
    members = class_members()
    # a method, a property and a classmethod: the collection sees all three kinds
    assert {"DiagGaussianParams.to_vector", "DiagGaussianParams.var"} <= members.keys()
    assert "DiscreteToyModel.from_posterior" in members
    entered = entered_code(tmp_path)
    orphans = sorted(name for name, code in members.items() if code not in entered)
    assert not orphans, f"no CLI run enters these; give them a caller or delete them: {orphans}"
