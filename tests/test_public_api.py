"""Every module-level function, class and constant of the package, and
every public method and property of its public classes, is used by the
package itself, outside its own definition; private constants count,
public ones are settings.  Every parameter of every function is read in
its body.  A method or property counts as used when the
package reads an attribute of its name outside its own definition, and
so does a dataclass field, outside its class, in the modules that hold
the pipeline's own types.  The exact-enumeration oracles in
tests/crbm_enumeration.py read nothing of the package but its model
type."""

import ast
from pathlib import Path

import crbm_radiomics
from crbm_radiomics import errors

PACKAGE = Path(crbm_radiomics.__file__).parent
TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(PACKAGE.glob("*.py"))}


def public_members(tree):
    """(qualified name, node, is a member) of every public function and
    class of the module and every public method and property of its
    public classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        yield f"{node.name}.{member.name}", member, True


def private_definitions(tree):
    """(name, node, False) of every private module-level function, class
    and constant of the module; dunder names are Python's."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node, False


def references(tree):
    """(name, line, is an attribute) of every name the module loads,
    every attribute it reads and every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno, False


def dataclass_fields(tree):
    """(qualified name, class node, True) of every annotated field of each
    dataclass of the module: a field counts as read only where the package
    reads an attribute of its name outside the field's class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            for member in node.body:
                if isinstance(member, ast.AnnAssign):
                    yield f"{node.name}.{member.target.id}", node, True


def uncalled(definitions, modules=tuple(TREES)):
    """module.name of each definition (name, node, is a member) that
    definitions(tree) yields for the tree of one of the modules and that
    no module of the package reads outside the definition's own lines."""
    refs = {module: list(references(tree)) for module, tree in TREES.items()}
    found = []
    for module in modules:
        for qualified, node, member in definitions(TREES[module]):
            name = qualified.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (attribute or not member)
                       and (other != module or line not in own)
                       for other, seen in refs.items()
                       for ref, line, attribute in seen):
                found.append(f"{module}.{qualified}")
    return found


def test_every_public_definition_has_a_caller_in_the_package():
    missing = uncalled(public_members)
    assert not missing, f"public definitions with no caller in the package: {missing}"


def test_every_private_definition_has_a_caller_in_the_package():
    # a private helper kept only for the tests would pass unnoticed
    # otherwise; the tests reach the CD chain through _cd_sums
    assert {("crbm", "_cd_sums"), ("crbm", "_EXTRACT_MAP_VALUES")} <= {
        (module, name) for module, tree in TREES.items()
        for name, _, _ in private_definitions(tree)}
    missing = uncalled(private_definitions)
    assert not missing, f"private definitions with no caller in the package: {missing}"


def test_every_dataclass_field_is_read_outside_its_class():
    """A field the package stores and never reads does no work.  The
    types of data_model and config are out of scope: they mirror outside
    formats, the manifest's columns and the config file's keys, and keep
    fields the pipeline reads nowhere, such as a sample's stage and
    subtype."""
    modules = ("crbm", "classifiers", "pls", "evaluation", "features")
    assert "CrbmModel.filters" in [name for name, _, _ in
                                   dataclass_fields(TREES["crbm"])]
    missing = uncalled(dataclass_fields, modules)
    assert not missing, f"dataclass fields the package never reads: {missing}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def function_body(node):
    """The statements, or a lambda's expression, of a function node."""
    return node.body if isinstance(node.body, list) else [node.body]


def parameters(node):
    """The parameter names of a function node."""
    args = node.args
    return [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                            *args.kwonlyargs, args.kwarg) if a is not None]


def reads(node):
    """The names node reads: its Name loads and the targets of its
    augmented assignments (x += y reads x).  What a nested function or
    lambda reads counts, except the parameters it binds itself."""
    if isinstance(node, ast.Name):
        return {node.id} if isinstance(node.ctx, ast.Load) else set()
    found = set()
    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        found.add(node.target.id)
    body = function_body(node) if isinstance(node, FUNCTIONS) else []
    if body:
        found |= set().union(*map(reads, body)) - set(parameters(node))
    for child in ast.iter_child_nodes(node):
        # decorators, defaults and annotations read the enclosing scope
        if not any(child is stmt for stmt in body):
            found |= reads(child)
    return found


def unread_parameters(tree):
    """function:parameter of each parameter of each function of the
    module, nested local steps and lambdas included, that its body never
    reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            loaded = set().union(*map(reads, function_body(node)))
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}:{param}" for param in parameters(node)
                      if param not in loaded]
    return found


def test_every_parameter_is_read_by_its_function():
    # a parameter kept after the work that read it has gone does no work;
    # a local step that reads a parameter of its own name reads only that
    source = ("def f(a, b, *c, d, **e):\n"
              "    def g(b, h):\n"
              "        h += 1\n"
              "        return a, b\n"
              "    return g, lambda d: d\n"
              "async def i(j, k):\n"
              "    return j\n")
    assert unread_parameters(ast.parse(source)) == [
        "f:b", "f:c", "f:d", "f:e", "i:k"]
    missing = [f"{module}.{name}" for module, tree in TREES.items()
               for name in unread_parameters(tree)]
    assert not missing, f"parameters their function never reads: {missing}"


def test_the_enumeration_oracles_share_no_code_with_the_package():
    # an oracle that called the kernels or conditionals it judges would
    # agree with them whatever they compute
    tree = ast.parse((Path(__file__).parent / "crbm_enumeration.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.startswith("crbm_radiomics")}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "crbm_radiomics"):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert imported <= {"crbm_radiomics.crbm.CrbmModel"}, imported
    private = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not node.attr.startswith("__")]
    assert not private, f"private attributes read: {private}"


def test_every_error_type_is_exported_by_the_package():
    defined = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.PipelineError)]
    assert len(defined) > 1
    for error in defined:
        assert getattr(crbm_radiomics, error.__name__, None) is error, error.__name__
