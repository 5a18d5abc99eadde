"""Every public module-level function and class of the package, and every
public method and property of its classes, is used by the package itself;
the only exceptions are the oracles listed below.  A method or property
counts as used when the package reads an attribute of its name outside
its own definition."""

import ast
from pathlib import Path

import crbm_radiomics

PACKAGE = Path(crbm_radiomics.__file__).parent

# Exact references that carry the paper's testable claims.  The tests call
# them; the pipeline does not, and need not.
ORACLES = {
    "crbm": {"energy", "free_energy", "log_partition", "exact_log_likelihood",
             "exact_log_likelihood_grad", "gibbs_chain", "cd_gradient_estimate",
             "sample_bernoulli"},
    "evaluation": {"auc_mann_whitney"},
    "radiomics": {"wavelet_reconstruct"},
}


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
