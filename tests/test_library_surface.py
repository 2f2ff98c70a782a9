"""Every public function and class of the library has a caller outside tests.

Code that only tests call is either given a place in the program or deleted.
A name counts as called when some module of src/ or perfbench/ refers to it,
as a bare name or as an attribute, outside the name's own definition; import
lines and strings do not count. The few names kept without such a caller are
listed below with the reason each stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vargrad_lab"

KEPT = {
    "vargrad_via_loss": "the loss-gradient route that checks the leave-one-out estimator",
    "delta_ratio_bound": "the paper's bound on the correction ratio, checked by test_c06",
    "read_csv": "the reader of the CSV format write_csv writes",
}


def public_definitions() -> dict[str, Path]:
    names = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = path
    return names


def referenced_names() -> set[str]:
    """Names used in src/ and perfbench/, except inside their own definition."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
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
            if owner.get(id(node)) != name:
                found.add(name)
    return found


def test_every_public_name_has_a_caller_outside_tests():
    used = referenced_names()
    orphans = {
        name: str(path.relative_to(ROOT))
        for name, path in public_definitions().items()
        if name not in used and name not in KEPT
    }
    assert not orphans, f"only tests call these; give them a caller or delete them: {orphans}"


def test_kept_names_still_need_their_entry():
    defined = public_definitions()
    used = referenced_names()
    stale = sorted(name for name in KEPT if name not in defined or name in used)
    assert not stale, f"remove these from KEPT: {stale}"
