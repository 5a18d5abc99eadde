"""Every public module-level function and class of the package, and every
public method and property of its classes, is used by the package itself;
the only exceptions are the entry points listed below.  A method or
property counts as used when the package reads an attribute of its name
outside its own definition.  The exact-enumeration oracles in
tests/crbm_enumeration.py read nothing of the package but its model type."""

import ast
from pathlib import Path

import crbm_radiomics
from crbm_radiomics import errors

PACKAGE = Path(crbm_radiomics.__file__).parent

# The production chain as the tests reach it, to hold it against the
# enumeration oracles; the pipeline runs the chain through cd_update.
ORACLES = {"crbm": {"gibbs_chain", "cd_gradient_estimate"}}


def public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_members(tree):
    """(qualified name, node, is a member) of every public definition of
    the module and every public method and property of its public classes."""
    for node in public_definitions(tree):
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member, True


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


def test_every_public_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    uncalled, defined = [], set()
    for module, tree in trees.items():
        for qualified, node, member in public_members(tree):
            defined.add((module, qualified))
            if qualified in ORACLES.get(module, ()):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (attribute or not member)
                       and (other != module or line not in own)
                       for other, found in refs.items()
                       for name, line, attribute in found):
                uncalled.append(f"{module}.{qualified}")
    assert not uncalled, f"public definitions with no caller in the package: {uncalled}"
    # the allowlist names only definitions that exist
    assert {(m, n) for m, names in ORACLES.items() for n in names} <= defined


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
    assert imported <= {"crbm_radiomics.crbm.CrbmModel",
                        "crbm_radiomics.crbm.CrbmGradient"}, imported
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
