"""Every public definition of the package is reached by the program, in
two ways, and every ``SceneConfig`` field is set by keyword (``name=``)
by a caller.

``test_every_public_definition_has_a_caller`` reads: a name counts as
reached when it occurs as a word outside the lines that define it, in the
package sources (minus the re-exports of ``pyrhead/__init__.py``), the
README, the benchmark harness or the acceptance suite. Tests other than the
acceptance suite do not count: a function only its own tests call is not
part of the program.

``test_every_public_definition_runs`` executes: it drives the program's
roots at tiny sizes and fails on any public function, method or property
of the package that none of them runs, naming each as ``file:qualname``.
Dunder methods the package defines count as public, since Python calls
them for ``len()``, ``+`` and calls, except ``__repr__``; those the
interpreter supplies do not. The roots are:

- every CLI subcommand through ``cli.run``: ``gridgen`` (both formats, the
  flag-built level and ``--config``), ``attend`` with each op, both formats,
  ``--gates`` and ``--scene`` with a PSET and a JSON file, ``gradcheck
  --seed 0`` (that is ``run_gradcheck(0)``), ``train-toy`` (both formats,
  ``--config`` and ``--out``) and ``stats``;
- ``cli.main`` once, with ``sys.argv`` patched;
- the acceptance criteria that take under a second: gate reduction,
  soft/hard membership, the geometry oracle and spatial-index exactness;
- a 3-step ``train_toy`` plus ``evaluate``, for the default head and for
  ``single_level_baseline``;
- the benchmark's ``workloads.setup``, ``run_op``, ``probe`` and
  ``oracle.check`` on both workloads, with two-scene pools.

First calls are recorded by wrappers installed at every name under which a
loaded module binds a package definition (for methods and properties, on
their class), as the benchmark's tracer hooks its layers. Each wrapper puts
the original back at its first call, so the roots run at full speed, and
all of them are removed in a ``finally``.
"""
import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

import oracles

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


def _sites(pattern: str) -> set[tuple[Path, int]]:
    """(file, line) of each package line that ``pattern`` matches."""
    return {(path, i) for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(pattern, line)}


def _home(file: str, qualname: str) -> set[tuple[Path, int]]:
    """(file, line) of each line of the definition ``qualname`` in ``file``."""
    path = PACKAGE / file
    node = ast.parse(path.read_text(), filename=str(path))
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
    return {(path, i) for i in range(node.lineno, node.end_lineno + 1)}


def test_proposals_are_labelled_in_one_place():
    """``assign_label(`` occurs in the package, outside its own ``def``, only
    inside ``synth.scene_targets``, which training, the gradient check and
    evaluation all take their labels from."""
    sites = _sites(r"^(?!\s*def ).*\bassign_label\(")
    inside = _home("synth.py", "scene_targets")
    assert sites and sites <= inside, sorted((p.name, i) for p, i in sites - inside)


@pytest.mark.parametrize("rule,file,home", [
    (r"positive, increasing and finite", "head.py", "HeadConfig.__post_init__"),
    (r"below level \{low\}", "head.py", "HeadConfig.__post_init__"),
    (r"reg_weight.*finite and >= 0", "head.py", "HeadConfig.__post_init__"),
    (r"(d_model|heads) must be >= 1|divisible by heads", "operators.py",
     "AttentionParams.check_sizes"),
    (r"outside \[0,1\]", "operators.py", "GateOverride"),
    (r"tau_start >= tau_end", "darp.py", "TemperatureSchedule.check_tau"),
    (r"tau must be positive and finite", "operators.py", "_check_tau"),
], ids=["context_radii", "r_min", "reg_weight", "attention_sizes", "gate_range", "tau",
        "single_tau"])
def test_each_head_config_rule_has_one_home(rule, file, home):
    """The error text of each head-config rule occurs in the package only in
    the one definition that checks it: ``HeadConfig`` checks a config whole at
    construction and calls the homes that ``attend``'s flags also reach."""
    sites = _sites(rule)
    inside = _home(file, home)
    assert sites and sites <= inside, sorted((p.name, i) for p, i in sites - inside)


@pytest.mark.parametrize("rule,file,home", [
    (r"radius must be positive and finite", "spatial.py", "_checked_ball"),
    (r"max_k must be >= 1", "spatial.py", "_checked_ball"),
    (r"centre must be finite and at most", "spatial.py", "_checked_ball"),
    (r"the sampling range, must be finite", "operators.py", "sampling_range"),
], ids=["ball_radius", "neighbour_cap", "ball_centre", "sampling_range"])
def test_each_neighbourhood_rule_has_one_home(rule, file, home):
    """The error text of each rule on a gather's input occurs in the package
    only in the one definition that checks it: ``query``, ``balls``,
    ``gather_level``, ``gather_extended``, the head and ``attend`` all call it."""
    sites = _sites(rule)
    inside = _home(file, home)
    assert sites and sites <= inside, sorted((p.name, i) for p, i in sites - inside)


def test_scene_index_cell_is_read_only_in_synth():
    """``INDEX_CELL`` is read in the package only by ``synth``, whose
    ``scene_loss`` and ``infer`` build each scene's index themselves."""
    sites = _sites(r"\bINDEX_CELL\b")
    assert sites and {p.name for p, _ in sites} == {"synth.py"}, sorted(
        (p.name, i) for p, i in sites)


def test_synth_runs_the_head_only_for_the_loss_and_inference():
    """``run_head(`` and ``build_index(`` occur in ``synth`` only inside
    ``scene_loss`` and ``infer``: training, the gradient check and
    evaluation reach the head through these two."""
    path = PACKAGE / "synth.py"
    sites = {site for site in _sites(r"\b(run_head|build_index)\(") if site[0] == path}
    inside = _home("synth.py", "scene_loss") | _home("synth.py", "infer")
    assert sites and sites <= inside, sorted(i for _, i in sites - inside)


def _reads(name: str) -> set[tuple[Path, int]]:
    """(file, line) of each package line that reads the variable ``name``."""
    return {(path, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load)}


def test_update_rule_has_one_home():
    """The step rule of toy training lives in ``synth.update``: ``MOMENTUM``,
    ``math.cos`` (the anneal) and ``.grad`` are read in ``synth`` only there,
    and ``GRAD_CLIP`` only there and in the one comparison with which
    ``train_toy`` counts the recorded norms above it."""
    update = _home("synth.py", "update")
    path = PACKAGE / "synth.py"
    counted = (_sites(r"\bnorm > GRAD_CLIP for norm in grad_norms\b")
               & _home("synth.py", "train_toy"))
    assert len(counted) == 1, sorted(i for _, i in counted)
    for sites, home in [
            (_reads("MOMENTUM"), update),
            (_reads("GRAD_CLIP"), update | counted),
            ({site for site in _sites(r"\.grad\b|\bmath\.cos\(") if site[0] == path},
             update)]:
        assert sites and sites <= home, sorted((p.name, i) for p, i in sites - home)


def test_gather_level_bins_once_per_call():
    """Both passes of ``gather_level`` search the one index the call builds."""
    sites = _sites(r"\bSpatialIndex\(") & _home("spatial.py", "gather_level")
    assert len(sites) == 1, sorted(i for _, i in sites)


def test_gradcheck_builds_an_index_only_for_the_radius_head():
    """The full-head check takes its index from ``scene_loss``; only
    ``_radius_head_checks``, which calls ``context_embedding`` itself,
    builds one."""
    path = PACKAGE / "gradcheck.py"
    sites = {site for site in _sites(r"\bbuild_index\(") if site[0] == path}
    inside = _home("gradcheck.py", "_radius_head_checks")
    assert sites and sites <= inside, sorted(i for _, i in sites - inside)


def test_parameters_are_walked_in_one_place():
    """The parameter classes inherit their walk: ``def named_parameters``
    occurs in the package once, in ``nn.Params``."""
    sites = _sites(r"\bdef named_parameters\(")
    inside = _home("nn.py", "Params")
    assert len(sites) == 1 and sites <= inside, sorted((p.name, i) for p, i in sites)


def test_output_is_written_in_one_place():
    """Only ``cli`` turns results into text: ``indent=2``, ``.write_text(``
    and ``sys.stdout.write(`` occur in the package only in ``cli.py``, and no
    ``to_json`` or ``to_csv`` method remains."""
    sites = _sites(r"indent=2|\.write_text\(|sys\.stdout\.write\(")
    assert sites and {p.name for p, _ in sites} == {"cli.py"}, sorted(
        (p.name, i) for p, i in sites if p.name != "cli.py")
    assert not _sites(r"\bdef to_(json|csv)\("), sorted(
        (p.name, i) for p, i in _sites(r"\bdef to_(json|csv)\("))


def test_tape_nodes_are_built_in_one_call():
    """Every op hands ``Value`` its data, parents and backward in one call:
    no package line assigns ``._backward`` (the release in ``Value.backward``
    sets it in a tuple assignment), and the parent filter ``_parents_of`` is
    gone, since ``Value.__init__`` keeps the Values among its parents."""
    assert not _sites(r"\._backward\s*="), sorted(
        (p.name, i) for p, i in _sites(r"\._backward\s*="))
    assert not _sites(r"\b(_parents_of|_np_sigmoid)\b"), sorted(
        (p.name, i) for p, i in _sites(r"\b(_parents_of|_np_sigmoid)\b"))


def _unused_imports(path: Path) -> list[str]:
    """Names that module ``path`` imports and never refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    """Every name a package module imports is used in it; ``__init__.py``
    re-exports its imports and is skipped."""
    unused = [entry for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == [], unused


def _unused_parameters(path: Path) -> list[str]:
    """``line name`` of each parameter of a function, method or lambda in
    module ``path`` that its body never reads; ``self``, ``cls`` and names
    starting with ``_`` are exempt. A read in a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({a.arg})"
                  for a in params
                  if a.arg not in ("self", "cls") and not a.arg.startswith("_")
                  and a.arg not in read]
    return found


def test_no_unused_parameters():
    """Every parameter of a package function, method or lambda is read by
    its body, so a dead parameter cannot stay behind in a signature."""
    unused = [entry for path in sorted(PACKAGE.glob("*.py"))
              for entry in _unused_parameters(path)]
    assert unused == [], unused


# -- reach by execution ----------------------------------------------------

def _is_public(name: str) -> bool:
    """Dunders count (Python calls them for ``len()``, ``+`` and calls),
    except ``__repr__``, which only debuggers and error reports call."""
    dunder = name.startswith("__") and name.endswith("__")
    return (dunder and name != "__repr__") or not name.startswith("_")


def _definitions() -> list[tuple[str, object, str, object]]:
    """(file:qualname, owner, attribute, object) of each public function,
    method and property the package defines; owner is the class of a
    method, None for a module-level function."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":     # importing it runs the CLI
            continue
        mod = importlib.import_module(f"pyrhead.{path.stem}")
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and _is_public(node.name):
                found.append((f"{path.name}:{node.name}", None, node.name,
                              vars(mod)[node.name]))
            elif isinstance(node, ast.ClassDef):
                cls = vars(mod)[node.name]
                found.extend((f"{path.name}:{node.name}.{sub.name}", cls, sub.name,
                              vars(cls)[sub.name])
                             for sub in node.body
                             if isinstance(sub, ast.FunctionDef) and _is_public(sub.name))
    return found


def _recording(fn, key: str, seen: set, restore):
    def first_call(*args, **kwargs):
        if key not in seen:
            seen.add(key)
            restore(key)
        return fn(*args, **kwargs)
    return first_call


@contextlib.contextmanager
def _first_calls(seen: set):
    """Add to ``seen`` the key of each definition at its first call, and
    yield all keys."""
    defs = _definitions()
    # where each definition is bound: its class, or every module-level name
    sites = {key: [(owner, name, obj)] if owner else [] for key, owner, name, obj in defs}
    by_id = {id(obj): key for key, owner, _, obj in defs if owner is None}
    for mod in list(sys.modules.values()):
        for name, value in list(getattr(mod, "__dict__", {}).items()):
            if id(value) in by_id:
                sites[by_id[id(value)]].append((mod, name, value))

    def restore(key):
        for owner, name, original in sites[key]:
            setattr(owner, name, original)

    try:
        for key, _, _, obj in defs:
            if isinstance(obj, property):
                hooked = property(_recording(obj.fget, key, seen, restore),
                                  obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, (classmethod, staticmethod)):
                hooked = type(obj)(_recording(obj.__func__, key, seen, restore))
            else:
                assert isinstance(obj, FunctionType), f"{key}: cannot hook {obj!r}"
                hooked = _recording(obj, key, seen, restore)
            for owner, name, _ in sites[key]:
                setattr(owner, name, hooked)
        yield list(sites)
    finally:
        for key in sites:
            restore(key)


def _import_pyrbench():
    """The benchmark harness of this checkout, found from the repo root
    rather than from the working directory."""
    if "pyrbench" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "pyrbench", ROOT / "pyrbench" / "__init__.py",
            submodule_search_locations=[str(ROOT / "pyrbench")])
        pkg = importlib.util.module_from_spec(spec)
        sys.modules["pyrbench"] = pkg
        spec.loader.exec_module(pkg)
    return (importlib.import_module("pyrbench.workloads"),
            importlib.import_module("pyrbench.oracle"))


def _run_roots(tmp: Path, monkeypatch, acceptance, workloads, bench_oracle) -> None:
    from pyrhead import cli, synth
    from pyrhead.geometry import default_pyramid_config
    from pyrhead.head import HeadConfig
    from pyrhead.spatial import PointSet

    rng = np.random.default_rng(0)
    scene = PointSet(rng.uniform(-2, 2, (40, 3)), rng.normal(size=(40, 8)))
    files = {name: tmp / name for name in
             ("scene.pset", "scene.json", "pyramid.json", "head.json", "out")}
    oracles.save_pset(scene, files["scene.pset"])
    files["scene.json"].write_text(oracles.point_set_json(scene))
    files["pyramid.json"].write_text(oracles.pyramid_config_json(default_pyramid_config()))
    files["head.json"].write_text(oracles.head_config_json(HeadConfig()))
    box, out = "0,0,0,2,4,2,0.3", str(files["out"])
    train = ["train-toy", "--steps", "3", "--scenes", "2"]
    commands = [
        ["gridgen", "--box", box],
        ["gridgen", "--box", box, "--grid", "2,1,1", "--ratios", "1.5,1.5,1",
         "--anchor", "corner", "--format", "csv"],
        ["gridgen", "--box", box, "--config", str(files["pyramid.json"])],
        *(["attend", "--op", op]
          for op in ("pool", "graph", "attention", "transformer", "unified", "darp")),
        ["attend", "--op", "unified", "--gates", "1,1,0,1", "--format", "csv"],
        ["attend", "--op", "darp", "--gates", "1,0,0,0", "--scene", str(files["scene.pset"])],
        ["attend", "--op", "graph", "--scene", str(files["scene.json"])],
        ["gradcheck", "--seed", "0", "--format", "csv", "--out", out],
        [*train, "--config", str(files["head.json"]), "--out", out],
        [*train, "--format", "csv"],
        ["stats", "--scenes", "2"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.run(argv) == 0, argv
        monkeypatch.setattr(sys, "argv", ["pyrhead", "gridgen", "--box", box])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 0

        acceptance.test_gate_reduction_equivalence()
        acceptance.test_soft_hard_radius_consistency()
        acceptance.test_geometry_oracle()
        acceptance.test_spatial_index_exactness()

    held_out = synth.generate_scenes(synth.SceneConfig(seed=9000), 2)
    for cfg in (HeadConfig(), synth.single_level_baseline(HeadConfig())):
        res = synth.train_toy(cfg, synth.SceneConfig(), steps=3, lr=0.0075, seed=0,
                              n_scenes=2)
        synth.evaluate(cfg, res.params, held_out)

    for wl in workloads.WORKLOADS.values():
        st = workloads.setup(dataclasses.replace(wl, pool=2, warmup=1), 0)
        workloads.run_op(st)
        ps, idx, rois, dets = workloads.probe(st)
        assert bench_oracle.check(st.cfg, st.params, ps, idx, rois, st.tau, dets) == []


def test_every_public_definition_runs(tmp_path, monkeypatch):
    # the root modules are imported first, so the wrappers replace (and the
    # finally restores) every name they bind
    import test_acceptance
    roots = (test_acceptance, *_import_pyrbench())
    originals = [obj for *_, obj in _definitions()]
    seen: set[str] = set()
    with _first_calls(seen) as keys:
        _run_roots(tmp_path, monkeypatch, *roots)
    assert [obj for *_, obj in _definitions()] == originals, "a wrapper was left in place"
    unreached = [key for key in keys if key not in seen]
    assert unreached == [], f"defined but never run: {unreached}"
