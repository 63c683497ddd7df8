"""The runtime is pure stdlib: every absolute import in src/lcong names a
standard-library module, and the CLI's start-up imports no more than it
needs.  The element internals stay in cyclotomic, the resource bounds in
characters, and each module imports only the modules below it.
cyclotomic defines no element product, and every special value is
computed on a memo its caller names."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "lcong").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({name.split(".")[0] for name in names} - sys.stdlib_module_names)
    assert outside == []


def test_cli_start_up_leaves_dataclasses_and_inspect_unimported():
    # Every lcong process imports the CLI.  dataclasses alone pulls in
    # inspect, ast, dis and tokenize, a fixed cost in each process.
    script = "import sys, lcong.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_no_module_but_cyclotomic_names_a_private_cyclotomic_name():
    # Every other module forms its values through the one door,
    # CyclotomicElement(order, num, den), and the element's public methods,
    # so only cyclotomic reduces and knows how an element is stored.
    private = {}
    for path in SOURCES:
        if path.stem == "cyclotomic":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 and (node.level, node.module) in ((1, "cyclotomic"), (0, "lcong.cyclotomic"))
                 for alias in node.names if alias.name.startswith("_")]
        names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "cyclotomic"
                  and node.attr.startswith("_")]
        if names:
            private[path.name] = names
    assert private == {}


def test_characters_alone_states_the_resource_bounds():
    # Every other module calls the checks of the bound section of
    # characters: none assigns a MAX_* bound or raises ResourceLimitError.
    # No module imports another lcong module's private name.
    bounds, private = {}, {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and "ResourceLimitError" in ast.unparse(node):
                bounds.setdefault(path.stem, set()).add("raise ResourceLimitError")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                bounds.setdefault(path.stem, set()).update(
                    name.id for name in ast.walk(node) if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Store) and name.id.startswith("MAX_"))
            elif (isinstance(node, ast.ImportFrom)
                  and (node.level == 1 or (node.module or "").startswith("lcong"))):
                private.setdefault(path.stem, []).extend(
                    alias.name for alias in node.names if alias.name.startswith("_"))
    assert {stem: names for stem, names in bounds.items() if names} == {
        "characters": {"MAX_TABLE_MODULUS", "MAX_INDEX", "MAX_WORK", "raise ResourceLimitError"}}
    assert {stem: names for stem, names in private.items() if names} == {}


def test_cyclotomic_defines_no_element_product():
    # The catalog's ring: sums, rational multiples and times_binomial.  No
    # element product, power, embedding between orders or order search.
    tree = ast.parse((SRC / "lcong" / "cyclotomic.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {name.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for name in node.targets if isinstance(name, ast.Name)}
    assert "times_binomial" in defined
    assert defined & {"_poly_mul", "embed", "__pow__", "__rpow__", "root_of_unity_order"} == set()


#: The modules from the bottom up: each imports only modules before it.
LAYERS = ("cyclotomic", "characters", "power_sums", "bernoulli", "congruences", "valuecache",
          "sweep", "cli")


def test_each_module_imports_only_the_layers_below_it():
    # So the exception family and the bounds, which every layer raises,
    # live at the bottom, in characters; __init__ only gathers the names.
    assert sorted(path.stem for path in SOURCES) == sorted(("__init__", *LAYERS))
    upward = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .x import ... names x; from . import x, y names x and y
                names = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "lcong":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lcong."):
                names = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("lcong.")]
            else:
                continue
            upward += [(path.stem, name) for name in names
                       if LAYERS.index(name) >= LAYERS.index(path.stem)]
    assert upward == []


def test_every_memo_is_named_by_its_caller():
    # No module holds a process-wide BernoulliCache, no function gives its
    # cache parameter a default, and the aliases of the memo's own methods
    # (B_k, E_k, B_(k,chi)) are not public names.
    import lcong
    from lcong.bernoulli import BernoulliCache

    modules = [importlib.import_module(f"lcong.{path.stem}") for path in SOURCES
               if path.stem != "__init__"]
    held = [f"{module.__name__}.{name}" for module in (lcong, *modules)
            for name, value in vars(module).items() if isinstance(value, BernoulliCache)]
    defaulted = []
    for module in modules:
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                cache = inspect.signature(fn).parameters.get("cache")
                if cache is not None and cache.default is not cache.empty:
                    defaulted.append(f"{module.__name__}.{name}")
    assert held == [] and defaulted == []
    assert {"bernoulli_number", "euler_number", "generalized_bernoulli"} & {*lcong.__all__} == set()
