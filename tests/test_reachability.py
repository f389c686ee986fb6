"""Every public function, class and method in the package has a caller,
and every ``SceneConfig`` field is set by keyword (``name=``) by one.

A name counts as reached when it occurs as a word outside the lines that
define it, in the package sources (minus the re-exports of
``pyrhead/__init__.py``), the README, the benchmark harness or the
acceptance suite. Tests other than the acceptance suite do not count: a
function only its own tests call is not part of the program.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pyrhead"


def public_definitions() -> dict[str, list[tuple[Path, int]]]:
    """name -> (file, def line) of each public top-level def, class or method."""
    defs: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = []
        for node in tree.body:
            nodes.append(node)
            if isinstance(node, ast.ClassDef):
                nodes.extend(node.body)
        for node in nodes:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.setdefault(node.name, []).append((path, node.lineno))
    return defs


def caller_corpus() -> list[tuple[Path, int, str]]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    files += sorted((ROOT / "pyrbench").glob("*.py"))
    return [(path, i, line)
            for path in files
            for i, line in enumerate(path.read_text().splitlines(), start=1)]


def test_every_public_definition_has_a_caller():
    corpus = caller_corpus()
    unreached = []
    for name, sites in public_definitions().items():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = set(sites)
        if not any(word.search(line) for path, i, line in corpus
                   if (path, i) not in own):
            unreached.append(name)
    assert unreached == [], f"defined but never reached: {sorted(unreached)}"


def test_every_scene_config_field_is_set_by_a_caller():
    """A SceneConfig field that no line of the package (outside the class),
    the benchmark harness or the acceptance suite sets by keyword is a
    setting with one value, so it belongs in a module constant."""
    synth = PACKAGE / "synth.py"
    tree = ast.parse(synth.read_text(), filename=str(synth))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SceneConfig")
    own = set(range(cls.lineno, cls.end_lineno + 1))
    corpus = [(path, i, line) for path, i, line in caller_corpus()
              if path.suffix == ".py" and not (path == synth and i in own)]
    unset = [node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign)
             and not any(re.search(rf"\b{node.target.id}\s*=(?!=)", line)
                         for _, _, line in corpus)]
    assert unset == [], f"SceneConfig fields no caller sets: {unset}"


def test_proposals_are_labelled_in_one_place():
    """``assign_label(`` occurs in the package, outside its own ``def``, only
    inside ``synth.scene_targets``, which training, the gradient check and
    evaluation all take their labels from."""
    synth = PACKAGE / "synth.py"
    tree = ast.parse(synth.read_text(), filename=str(synth))
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "scene_targets")
    inside = {(synth, i) for i in range(fn.lineno, fn.end_lineno + 1)}
    sites = {(path, i) for path in sorted(PACKAGE.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"\bassign_label\(", line) and not line.lstrip().startswith("def ")}
    assert sites and sites <= inside, sorted((p.name, i) for p, i in sites - inside)
