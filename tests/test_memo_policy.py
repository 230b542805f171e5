"""Every memo in the package is one of three kinds: a bounded
``lru_cache(MEMO_SIZE)``, ``core.small_table_cache``, or a sequence under
``core.capped_sequence``.  A ``global`` statement, a module-level container
that a function grows, or an ``lru_cache`` of any other size fails here.
So does a submask step ``(sub - 1) & mask`` outside ``core.submasks``, the
one walk of the subset lattice, a size refusal ("capped at n =",
"needs n >=") written outside ``core.check_size``, and a public function,
class or method that nothing else in the package uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "descyc"

# small_table_cache bounds its unbounded lru_cache by n itself.
ALLOWED = {("core.small_table_cache", "lru_cache")}

_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "add"}


def _memo_name(node: ast.AST):
    """'lru_cache' or 'cache' for a reference to that functools memo."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
        name = node.attr
    else:
        name = getattr(node, "id", None)
    return name if name in ("lru_cache", "cache") else None


def _bounded(call) -> bool:
    if call is None:
        return False
    sizes = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")]
    return len(sizes) == 1 and getattr(sizes[0], "id", None) == "MEMO_SIZE"


def _modules(src: Path):
    """(stem, tree, owners) per module, where owners maps the id of each
    node to "module.function" for the innermost function around it."""
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # ast.walk reaches an outer function before the functions nested in it
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for part in (*node.decorator_list, *node.body):
                    for inner in ast.walk(part):
                        owners[id(inner)] = f"{path.stem}.{node.name}"
        yield path.stem, tree, owners


def _violations(src: Path = SRC) -> set[tuple[str, str]]:
    found = set()
    for stem, tree, owners in _modules(src):
        containers = set()  # module-level names bound to a list, dict or set
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, (ast.List, ast.Dict, ast.Set)):
                containers |= {t.id for t in targets if isinstance(t, ast.Name)}
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            owner = owners.get(id(node), stem)
            if isinstance(node, ast.Global):
                found.add((owner, "global"))
            elif _memo_name(node) and not _bounded(calls.get(id(node))):
                found.add((owner, "lru_cache"))
            elif (owner != stem and isinstance(node, ast.Attribute)
                  and node.attr in _MUTATORS
                  and getattr(node.value, "id", None) in containers):
                found.add((owner, f"grows {node.value.id}"))
    return found


def _is_submask_step(node: ast.AST) -> bool:
    # (name - 1) & anything; a mask such as ((1 << p) - 1) & m does not match
    left = getattr(node, "left", None)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(left, ast.BinOp) and isinstance(left.op, ast.Sub)
            and isinstance(left.left, ast.Name)
            and isinstance(left.right, ast.Constant) and left.right.value == 1)


def _submask_steps(src: Path = SRC) -> set[str]:
    """The functions (or modules) that hold a submask step."""
    return {owners.get(id(node), stem) for stem, tree, owners in _modules(src)
            for node in ast.walk(tree) if _is_submask_step(node)}


def test_memos_follow_one_policy():
    assert _violations() == ALLOWED


def test_policy_check_flags_ad_hoc_memos(tmp_path):
    (tmp_path / "bad.py").write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "_values = [1]\n"
        "_table: dict[int, int] = {}\n"
        "def grow(n):\n"
        "    global _values\n"
        "    _values.append(n)\n"
        "def fill(n):\n"
        "    _table.setdefault(n, n)\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def unbounded(n):\n"
        "    return n\n"
        "@lru_cache\n"
        "def default_size(n):\n"
        "    return n\n"
        "@functools.cache\n"
        "def plain_cache(n):\n"
        "    return n\n"
        "@lru_cache(MEMO_SIZE)\n"
        "def bounded(n):\n"
        "    return n\n")
    assert _violations(tmp_path) == {
        ("bad.grow", "global"), ("bad.grow", "grows _values"),
        ("bad.fill", "grows _table"),
        ("bad.unbounded", "lru_cache"), ("bad.default_size", "lru_cache"),
        ("bad.plain_cache", "lru_cache")}


def test_one_submask_walk():
    assert _submask_steps() == {"core.submasks"}


def test_submask_check_flags_hand_written_walks(tmp_path):
    (tmp_path / "bad.py").write_text(
        "def walk(mask):\n"
        "    sub = mask\n"
        "    while sub:\n"
        "        sub = (sub - 1) & mask\n"
        "top = (1 - 1) & 3\n"
        "step = (top - 1) & 3\n"
        "def low_bits(p, mask):\n"
        "    return ((1 << p) - 1) & mask, mask & ((1 << p) - 1)\n")
    assert _submask_steps(tmp_path) == {"bad.walk", "bad"}


# Refusal texts kept out of core.check_size, each byte for byte, and why.
KEPT_REFUSALS = {
    ("asymptotics._check_cap", "f'{text} scan capped at n = {cap}'"):
        "the scan cap names the family and has no ', got'",
    ("patterns._check_run_args", "f'needs n >= {least_n} and k >= 2, got {n}, {k}'"):
        "names both n and k",
}


def _size_refusals(src: Path = SRC) -> set[tuple[str, str]]:
    """(function, source text) of each string that holds a size refusal."""
    found = set()
    for stem, tree, owners in _modules(src):
        parts = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for v in node.values}
        for node in ast.walk(tree):
            if id(node) in parts or not isinstance(node, (ast.JoinedStr, ast.Constant)):
                continue
            text = ast.unparse(node)
            if "capped at n =" in text or "needs n >=" in text:
                found.add((owners.get(id(node), stem), text))
    return found


def test_one_size_refusal():
    found = {(owner, text) for owner, text in _size_refusals()
             if owner != "core.check_size"}
    assert found == set(KEPT_REFUSALS)


def test_refusal_check_flags_hand_written_texts(tmp_path):
    (tmp_path / "bad.py").write_text(
        "def cap(n):\n"
        "    if n > 9:\n"
        "        raise ValueError(f'widgets capped at n = 9, got {n}')\n"
        "def low(n):\n"
        "    return 'widgets needs n >= 1'\n"
        "MESSAGE = 'needs n >= 0'\n"
        "def fine(n):\n"
        "    return f'capped at k*n = {n}', 'needs n, k >= 1'\n")
    assert _size_refusals(tmp_path) == {
        ("bad.cap", "f'widgets capped at n = 9, got {n}'"),
        ("bad.low", "'widgets needs n >= 1'"), ("bad", "'needs n >= 0'")}


# Public names of src/ that nothing else in src/ uses, kept on purpose, and why.
KEPT_ORPHANS = {
    "patterns.monotone_avoiders":
        "the d = 1 family sum, which the tests pin against the oracle's avoiders",
}


def _imports(tree: ast.Module):
    """The relative imports of a module: local name -> module for
    ``from . import lib``, and local name -> (module, name) for
    ``from .lib import f as g``."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    return modules, names


def _orphans(src: Path = SRC) -> set[str]:
    """module.name of each public top-level function or class that no other
    place in src uses.  A use is resolved through bindings, not matched by
    name: ``lib.f`` counts for lib.f only where lib is an imported module,
    and a bare ``f`` only in the module that defines f (outside f itself) or
    that imports it; a docstring does not count.  A re-export in __init__
    is not a use, and the oracle module, which holds the tests' reference
    routes, is exempt."""
    defined, used = set(), set()
    for stem, tree, _ in _modules(src):
        if stem == "__init__":
            continue
        modules, names = _imports(tree)
        tops = {top.name for top in tree.body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_") and stem != "oracle":
                defined.add((stem, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                    used.add((modules[node.value.id], node.attr))
                elif isinstance(node, ast.Name) and node.id in names:
                    used.add(names[node.id])
                elif isinstance(node, ast.Name) and node.id in tops and node.id != own:
                    used.add((stem, node.id))
    return {f"{stem}.{name}" for stem, name in defined - used}


def test_every_public_name_is_used():
    assert _orphans() == set(KEPT_ORPHANS)


def test_orphan_check_flags_unused_names(tmp_path):
    (tmp_path / "__init__.py").write_text("from .lib import exported\n")
    (tmp_path / "lib.py").write_text(
        "def used(n):\n"
        "    return n\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used(n)\n"
        "def exported():\n"
        "    'Only __init__ and this docstring name exported.'\n"
        "class Orphan:\n"
        "    def copy(self):\n"
        "        return Orphan()\n"
        "def _private():\n"
        "    pass\n")
    (tmp_path / "app.py").write_text(
        "from . import lib\n"
        "from .lib import used as alias\n"
        "def main():\n"
        "    return lib.recursive(1), alias(1)\n"
        "if __name__ == '__main__':\n"
        "    main()\n")
    (tmp_path / "oracle.py").write_text("def reference():\n    pass\n")
    assert _orphans(tmp_path) == {"lib.exported", "lib.Orphan"}


def test_orphan_check_resolves_bindings(tmp_path):
    # a same-named attribute of something else, or a bare name in a module
    # that neither defines nor imports it, is not a use
    (tmp_path / "lib.py").write_text(
        "def evaluation(word):\n"
        "    return word\n"
        "def period(word):\n"
        "    return word\n"
        "def used(word):\n"
        "    return word\n")
    (tmp_path / "other.py").write_text(
        "def period(word):\n"
        "    return word\n")
    (tmp_path / "cli.py").write_text(
        "from . import lib, other\n"
        "def main(args):\n"
        "    period = len(args)\n"
        "    return args.evaluation, other.period(period), lib.used(1)\n"
        "main([])\n")
    assert _orphans(tmp_path) == {"lib.evaluation", "lib.period"}


def _unused_methods(src: Path = SRC) -> set[str]:
    """module.Class.method of each public method of a public class, outside
    the oracle module, whose name appears as no attribute anywhere in src
    but inside its own body.  Unlike _orphans this matches names: a method
    is reached through instances, whose bindings the source does not
    show."""
    methods, attrs = {}, []
    for stem, tree, _ in _modules(src):
        attrs += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        if stem == "oracle":
            continue
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for fn in top.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        methods[f"{stem}.{top.name}.{fn.name}"] = (
                            fn.name, set(ast.walk(fn)))
    return {name for name, (attr, own) in methods.items()
            if not any(node.attr == attr and node not in own for node in attrs)}


def test_every_public_method_is_used():
    assert _unused_methods() == set()


def test_method_check_flags_unused_methods(tmp_path):
    (tmp_path / "lib.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return self.size\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    def unused(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return 0\n"
        "class _Hidden:\n"
        "    def unused(self):\n"
        "        return 0\n")
    (tmp_path / "app.py").write_text(
        "from .lib import Box\n"
        "def main():\n"
        "    return Box().used()\n")
    (tmp_path / "oracle.py").write_text(
        "class Reference:\n"
        "    def unused(self):\n"
        "        return 0\n")
    assert _unused_methods(tmp_path) == {"lib.Box.recursive", "lib.Box.unused"}
