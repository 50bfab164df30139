"""Checks on the package source itself."""

import ast
import pathlib
import sys

import sympdeg


def test_no_assert_statements():
    """No module of the package guards anything with an assert statement,
    which python -O strips; guards raise instead."""
    package = pathlib.Path(sympdeg.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unreferenced_private_definitions():
    """Every private function, method or class of the package is named
    somewhere in the package's code, an import alone not counting, so
    none is a leftover no input can reach.  pbw._check_fixed_point is
    the one exception: it is the reference checker the tests compare the
    enumeration against."""
    package = pathlib.Path(sympdeg.__file__).parent
    defined, named = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append("%s.%s" % (path.stem, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreferenced = [name for name in defined if name.split(".")[1] not in named]
    assert unreferenced == ["pbw._check_fixed_point"]


def test_imports_only_stdlib_or_relative():
    """The package depends on nothing outside the standard library: every
    import of its modules is relative or names a module of
    sys.stdlib_module_names."""
    package = pathlib.Path(sympdeg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_import_machinery():
    """No module of the package imports importlib or assigns into
    sys.modules: every layer is imported plainly, and the package leaves
    the import system's state to the interpreter."""
    package = pathlib.Path(sympdeg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif isinstance(node, ast.Assign):
                names = [ast.unparse(t.value) for t in node.targets
                         if isinstance(t, ast.Subscript)]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.partition(".")[0] == "importlib" or name == "sys.modules"]
    assert found == []


def test_no_unused_imports():
    """Every name a module of the package (bar __init__, which imports to
    export) or of the tests imports is read somewhere in that module, so
    no import outlives the code that used it.  from __future__ imports
    bind no name and are exempt."""
    package = pathlib.Path(sympdeg.__file__).parent
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    modules += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in bound
                      if name not in named]
    assert found == []


def test_collector_switch_in_one_place():
    """gc.disable and gc.enable appear in the package only inside
    pbw._collector_paused, the pause around the fixed-point build, so the
    process-wide collector state is touched in one audited place.  A
    from-import of either name counts wherever it is."""
    package = pathlib.Path(sympdeg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = "%s.%s" % (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    found += ["%s import %s" % (where, alias.name) for alias in node.names
                              if alias.name in ("disable", "enable")]
                elif (isinstance(node, ast.Attribute) and node.attr in ("disable", "enable")
                        and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                    found.append("%s gc.%s" % (where, node.attr))
    assert sorted(found) == ["pbw._collector_paused gc.disable",
                             "pbw._collector_paused gc.enable"]


def test_every_parameter_is_read():
    """Every parameter of every function and lambda of the package is read
    in its body, so no argument is accepted only to be dropped.  Exempt
    are a method's receiver (self or cls), the parameters a protocol
    fixes (__setattr__'s name and value, __exit__'s exc_info) and
    sym_move_refinement's budget, which perfbench/workloads.py passes."""
    exempt = {("__setattr__", "name"), ("__setattr__", "value"),
              ("__exit__", "exc_info"), ("sym_move_refinement", "budget")}
    package = pathlib.Path(sympdeg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)
                   and not any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p]
            if id(node) in methods:
                params = params[1:]
            name = getattr(node, "name", "<lambda>")
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found += ["%s:%d %s(%s)" % (path.name, node.lineno, name, p.arg) for p in params
                      if p.arg not in read and (name, p.arg) not in exempt]
    assert found == []


def test_every_cache_is_bounded():
    """Every functools.lru_cache of the package is called with an integer
    maxsize, so no module-level cache grows without bound.  A bare
    decorator, functools.cache (unbounded) and a maxsize that is not an
    int literal are each reported, under either spelling: functools.name
    or a name imported from functools."""
    package = pathlib.Path(sympdeg.__file__).parent
    caches, found = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "functools"
                    for alias in node.names}

        def cache_name(node):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = imported.get(node.id)
            else:
                return None
            return name if name in ("lru_cache", "cache") else None

        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache":
                sizes = node.args[:1] + [kw.value for kw in node.keywords
                                         if kw.arg == "maxsize"]
                if (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                        and type(sizes[0].value) is int):
                    bounded.add(id(node.func))
        for node in ast.walk(tree):
            name = cache_name(node)
            if name:
                where = "%s:%d %s" % (path.name, node.lineno, name)
                (caches if id(node) in bounded else found).append(where)
    assert found == []
    assert len(caches) >= 3
