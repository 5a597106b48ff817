"""No module of the package, test or script imports a name it never
uses, no package module imports a private name of another, every
top-level function or class of the package has a caller outside tests
unless ``USED_ONLY_IN_TESTS`` says why it is kept, every method, property
and dataclass field of the package is read outside tests unless
``MEMBERS_USED_ONLY_IN_TESTS`` says why it is kept, every field of a
config class is set by a caller outside tests unless
``CONFIG_FIELDS_SET_ONLY_IN_TESTS`` says why it is kept, every function the
benchmark's tracer wraps exists, and the CLI catches errors in one place."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stdialog"

# Definitions whose only callers are tests, each kept for a reason.
USED_ONLY_IN_TESTS = {
    "grad_check": "the finite-difference gradient verifier",
    "CharChunkTokenizer": "tokenizes words into several tokens",
    "full_scale_config": "the paper's 16 kHz, 99-frame frontend geometry",
    "write_labels_manifest": "the writer paired with read_labels_manifest",
}

# Class members whose only readers are tests, each kept for a reason.
MEMBERS_USED_ONLY_IN_TESTS = {
    "MetricsLog.read": "reads back the metric rows the resume tests compare",
}

# Config fields that no caller outside tests sets, each kept for a reason.
CONFIG_FIELDS_SET_ONLY_IN_TESTS = {
    "TrainConfig.checkpoint_every": "how often a long run saves; the resume "
                                    "tests set it",
    "ModelConfig.conv_pos_kernel": "a size whose full-scale value (128 in "
                                   "wav2vec 2.0) differs from the desk one",
    "ModelConfig.conv_pos_groups": "a size whose full-scale value (16 in "
                                   "wav2vec 2.0) differs from the desk one",
    "CrossModalTaskConfig.frame_rate": "must match the sample rate of the "
                                       "pre-trained model's frontend",
}


def names_in(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = names_in(tree)
    for node in ast.walk(tree):   # string annotations such as -> "Vocab"
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= names_in(ast.parse(ann.value, mode="eval"))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """Underscore-prefixed names that ``source`` imports from a module of
    the package (a relative import or one from ``stdialog``)."""
    return [f"{alias.name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "stdialog")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_checker_flags_a_private_import():
    source = ("from .autodiff import _hidden, record\n"
              "from stdialog.model import _helper\n"
              "from os import _exit\n"
              "from . import _private\n"
              "print(_hidden, record, _helper, _exit, _private)\n")
    assert private_imports(source) == [
        "_hidden (line 1)", "_helper (line 2)", "_private (line 4)"]


def references(tree) -> tuple:
    """How often each name is used in ``tree`` as a bare name and as an
    attribute, and the names it imports with ``from ... import``."""
    nodes = list(ast.walk(tree))
    return (Counter(n.id for n in nodes if isinstance(n, ast.Name)),
            Counter(n.attr for n in nodes if isinstance(n, ast.Attribute)),
            {alias.name for n in nodes if isinstance(n, ast.ImportFrom)
             for alias in n.names})


def unreferenced_definitions(modules: dict, extra_sources=()) -> list:
    """``module.name`` of each top-level function or class in ``modules``
    (module name -> source) that neither those modules nor
    ``extra_sources`` refer to outside the definition itself.  An
    attribute ``x.name`` anywhere counts; a bare ``name`` counts only in
    the defining module or in one that imports ``name``, so a local
    variable of the same name elsewhere does not."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = [(name, references(tree)) for name, tree in trees.items()]
    refs += [(None, references(ast.parse(source))) for source in extra_sources]

    def uses(module, name):
        return sum(attrs[name] + (bare[name] if other == module
                                  or name in imported else 0)
                   for other, (bare, attrs, imported) in refs)

    def self_uses(node):
        bare, attrs, _ = references(node)
        return bare[node.name] + attrs[node.name]

    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and uses(module, node.name) == self_uses(node))


def test_no_unreferenced_definitions():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    scripts = [path.read_text() for path in (ROOT / "scripts").glob("*.py")]
    dead = unreferenced_definitions(modules, scripts)
    assert {d.split(".")[1] for d in dead} == set(USED_ONLY_IN_TESTS), dead


def test_checker_flags_an_unreferenced_function():
    modules = {
        "a": ("def used():\n    return 1\n\n"
              "def unused(n):\n    return unused(n - 1) if n else 0\n\n"
              "class Box:\n    pass\n"),
        "b": "from a import Box, used\n\nprint(used(), Box)\n",
    }
    assert unreferenced_definitions(modules) == ["a.unused"]
    # a bare name in a module that does not import it is another variable
    shadowed = {"a": "def sub(x):\n    return x\n",
                "b": "sub = 1\nprint(sub)\n"}
    assert unreferenced_definitions(shadowed) == ["a.sub"]


def class_members(tree) -> list:
    """``Class.member`` of each method, property and dataclass field of the
    top-level classes in ``tree``; special methods such as ``__init__``
    are left out."""
    members = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass"
                        for d in decorators)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and \
                    not item.name.startswith("__"):
                members.append(f"{node.name}.{item.name}")
            elif dataclass and isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                members.append(f"{node.name}.{item.target.id}")
    return members


def unread_members(modules: dict, extra_sources=()) -> list:
    """``module.Class.member`` of each class member of ``modules`` (module
    name -> source) whose name no attribute read ``x.name`` in those
    modules or in ``extra_sources`` takes; a keyword argument or an
    assignment sets a field but does not read it."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {node.attr
             for tree in [*trees.values(), *map(ast.parse, extra_sources)]
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{member}" for module, tree in trees.items()
                  for member in class_members(tree)
                  if member.split(".")[1] not in reads)


def test_no_unread_class_members():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    others = [path.read_text() for folder in ("scripts", "bench")
              for path in (ROOT / folder).glob("*.py")]
    unread = unread_members(modules, others)
    assert {u.split(".", 1)[1] for u in unread} == \
        set(MEMBERS_USED_ONLY_IN_TESTS), unread


def test_checker_flags_an_unread_member():
    modules = {
        "a": ("from dataclasses import dataclass\n\n"
              "@dataclass\nclass Box:\n    used: int\n    unused: int\n\n"
              "    def __post_init__(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        return self.used\n\n"
              "    def dead(self):\n        return 1\n\n"
              "    def alive(self):\n        return self.size\n\n"
              "class Plain:\n    count: int = 0\n\n"
              "    def run(self):\n        return 0\n"),
        "b": ("from a import Box\n\nbox = Box(used=1, unused=2)\n"
              "box.unused = 3\nprint(box.alive())\n"),
    }
    assert unread_members(modules) == ["a.Box.dead", "a.Box.unused",
                                       "a.Plain.run"]


def config_fields(tree) -> list:
    """``Class.field`` of each field of the top-level dataclasses in
    ``tree`` whose name ends in ``Config``."""
    return [f"{node.name}.{item.target.id}" for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
            for item in node.body if isinstance(item, ast.AnnAssign)]


def call_name(call) -> str:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", "")


def flag_dest(call) -> str:
    """The attribute that an ``add_argument`` call stores its value in."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    return call.args[0].value.lstrip("-").replace("-", "_")


def unset_config_fields(modules: dict, extra_sources=()) -> list:
    """``Class.field`` of each config field of ``modules`` (module name ->
    source) that neither they nor ``extra_sources`` pass as a keyword: in a
    call of the class, in a ``replace`` call (which counts for every config
    class with that field), or as the ``dest`` of a CLI flag, which counts
    for the config classes named in the command function that the flag's
    subparser hands to ``set_defaults(func=...)``."""
    trees = [ast.parse(source)
             for source in [*modules.values(), *extra_sources]]
    fields = [f for tree in trees[:len(modules)] for f in config_fields(tree)]
    owners = {}
    for field in fields:
        owners.setdefault(field.split(".")[1], set()).add(field.split(".")[0])
    found = set()
    for tree in trees:
        named = {node.name: {n.id for n in ast.walk(node)
                             if isinstance(n, ast.Name)}
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        calls = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Call)),
                       key=lambda n: (n.lineno, n.col_offset))
        flags = []
        for call in calls:
            name = call_name(call)
            keywords = [k.arg for k in call.keywords if k.arg]
            if name == "replace":
                found |= {f"{cls}.{k}" for k in keywords
                          for cls in owners.get(k, ())}
            elif name == "add_argument":
                flags.append(flag_dest(call))
            elif name == "set_defaults" and "func" in keywords:
                func = call.keywords[keywords.index("func")].value.id
                found |= {f"{cls}.{dest}" for dest in flags
                          for cls in named.get(func, ())}
                flags = []
            else:
                found |= {f"{name}.{k}" for k in keywords}
    return sorted(set(fields) - found)


def test_every_config_field_is_set_by_a_caller():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    others = [path.read_text() for folder in ("scripts", "bench")
              for path in (ROOT / folder).glob("*.py")]
    assert set(unset_config_fields(modules, others)) == \
        set(CONFIG_FIELDS_SET_ONLY_IN_TESTS)


def test_checker_flags_an_unset_config_field():
    modules = {
        "a": ("from dataclasses import dataclass\n\n"
              "@dataclass\nclass RunConfig:\n    steps: int = 1\n"
              "    seed: int = 0\n    rate: int = 2\n    depth: int = 3\n"
              "    width: int = 4\n\n"
              "@dataclass\nclass Box:\n    size: int = 0\n\n"
              "def run(cfg=RunConfig(steps=2)):\n    return cfg\n"),
        "cli": ("from dataclasses import replace\n"
                "from a import RunConfig, run\n\n"
                "def cmd_run(args):\n    return run(RunConfig())\n\n"
                "def cmd_other(args):\n    return args\n\n"
                "def parser(sub):\n"
                "    p = sub.add_parser('run')\n"
                "    p.add_argument('--seed', type=int)\n"
                "    p.set_defaults(func=cmd_run)\n"
                "    p = sub.add_parser('other')\n"
                "    p.add_argument('--rate-hz', dest='rate')\n"
                "    p.add_argument('--depth')\n"
                "    p.set_defaults(func=cmd_other)\n"),
    }
    # steps by the constructor, seed by the flag of a command that builds
    # the config; rate and depth only by flags of a command that does not
    assert unset_config_fields(modules) == [
        "RunConfig.depth", "RunConfig.rate", "RunConfig.width"]
    assert unset_config_fields(modules, ["replace(cfg, width=5)\n"]) == [
        "RunConfig.depth", "RunConfig.rate"]


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom math import pi, tau\nfrom io import BytesIO\n"
              "def f(x) -> \"BytesIO\":\n    return pi\n")
    assert unused_imports(source) == ["os (line 2)", "tau (line 3)"]


def test_bench_tracer_layers_resolve():
    """``bench/run.py --trace 1`` wraps each (module, attribute path) in
    ``bench/tracer.py``'s ``LAYERS``; a renamed function would break it."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for layer, (module, path) in tracer.LAYERS.items():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not (module.startswith("stdialog") and callable(owner)):
            unresolved.append(f"{layer}: {module}.{path}")
    assert tracer.LAYERS and unresolved == []


def test_cli_has_one_error_boundary():
    """``cli.main`` alone turns a library error into one line; a command
    that caught errors around its own calls would start the per-call
    wrapping over again and leave the calls nobody wrapped uncaught."""
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1 and handlers[0] in list(ast.walk(main))
