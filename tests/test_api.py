"""The package's surface: every exported name is used or documented, and the
CLI's import stays light."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fractalheat"


def _exports(trees):
    """module.name for every entry of every module's __all__."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                out.update({f"{module}.{name}": name for name in ast.literal_eval(node.value)})
    return out


def _readme_public_api(parts):
    """Names listed as `module.name` (parts 2) or `module.Class.member`
    (parts 3) at the start of a bullet in the README's Public API section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    dotted = r"\.".join([r"\w+"] * parts)
    return set(re.findall(rf"^\* `({dotted})`", section, flags=re.M))


def test_every_export_has_a_caller_or_a_reason():
    # a name in __all__ that nothing in the package reads is surface to
    # maintain; it stays only when the README says why.  The package's own
    # re-exports in __init__.py are not callers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {getattr(node, "id", getattr(node, "attr", None))
            for module, tree in trees.items() if module != "__init__"
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    exports = _exports(trees)
    listed = _readme_public_api(2)
    assert listed <= set(exports), f"README lists unexported names {listed - set(exports)}"
    uncalled = sorted(q for q, name in exports.items() if name not in used and q not in listed)
    assert not uncalled, f"exported, never called in src/ and not in the README: {uncalled}"


IMPORT_CHECK = """
import sys
import fractalheat.cli, fractalheat.verify
print(" ".join(m for m in ("scipy.sparse", "scipy.spatial", "scipy.special", "scipy.optimize")
               if m in sys.modules))
"""


def test_cli_import_loads_no_heavy_scipy_module():
    # interpreter start plus these imports is the set-up time of every CLI
    # run; the scipy submodules named above are imported by the functions
    # that use them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


RUN_CHECK = """
import sys, tempfile
from fractalheat import cli
with tempfile.TemporaryDirectory() as out:
    for argv in (["eta", "--times", "0.5"], ["solve"]):
        code = cli.main(argv + ["--level", "2", "--depth", "3", "--out", f"{out}/{argv[0]}"])
        assert code == 0, argv
print("scipy.spatial" in sys.modules)
"""


def test_eta_and_solve_load_no_spatial_index():
    # the kernel matches reflected vertices by their rounded coordinates and
    # the noise cells snap through the cell table, so neither command pays
    # for importing scipy.spatial (34-55 ms after scipy.sparse, 2 vCPUs)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", RUN_CHECK], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def _dotted(node):
    """'a.b.c' for a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_dense_linear_algebra_runs_on_numpy():
    # numpy and scipy each bring their own OpenBLAS; a call into scipy's
    # leaves its thread pool spinning next to numpy's.  The bare
    # `import scipy.linalg` (kernel.py) only loads scipy's core early
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {"scipy.linalg"}             # the module and its aliases
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {a.asname for a in node.names
                          if a.asname and a.name.startswith("scipy.linalg")}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("scipy.linalg")
                    or (node.module == "scipy" and any(a.name == "linalg" for a in node.names))):
                bad.append(f"{where} from {node.module} import ...")
            elif isinstance(node, ast.Import):
                bad += [f"{where} import {a.name}" for a in node.names
                        if a.name.startswith("scipy.linalg.")]
            elif isinstance(node, ast.Call):
                name = _dotted(node.func) or ""
                if any(name.startswith(n + ".") for n in names):
                    bad.append(f"{where} calls {name}")
    assert not bad, f"scipy.linalg used in src/: {bad}"


def test_one_duhamel_implementation():
    # the Duhamel steps (nodes, exp(lam h), weights) are read in one place;
    # h, eta and the solver's fields all reach them through HeatKernel.duhamel
    callers = []

    def scan(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                scan(child, scope + [child.name], path)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "_duhamel_steps":
                    callers.append(f"{path.name}:{'.'.join(scope)}")
            scan(child, scope, path)

    for path in sorted(SRC.glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [], path)
    assert callers == ["kernel.py:HeatKernel.duhamel"]


def test_every_public_member_has_a_reader_or_a_reason():
    # a public method or property that nothing reads is surface to maintain,
    # as an unread export is.  The benchmark's tracer patches methods by
    # name, so a name written as a string in perfbench/ counts as a reader
    members = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                members.update({f"{path.stem}.{node.name}.{item.name}": item.name
                                for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")})
    read = set()
    for path in sorted([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        in_perfbench = path.parent.name == "perfbench"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif in_perfbench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    listed = _readme_public_api(3)
    assert listed <= set(members), f"README lists unknown members {listed - set(members)}"
    unread = sorted(q for q, name in members.items() if name not in read and q not in listed)
    assert not unread, f"public members read nowhere in src/ or perfbench/: {unread}"
