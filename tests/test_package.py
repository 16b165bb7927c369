import ast
import inspect
import pickle
from collections import Counter
from pathlib import Path

import camsieve
from camsieve import errors

# the public names; a name leaves or joins the package API only with this list
EXPORTS = [
    "DecisionTreeModel", "FEATURE_NAMES", "FlowState", "LabelTaxonomy", "LabeledRecord",
    "PacketRecord", "ProtocolHint", "SynthProfile", "TrafficKind", "assemble_flows",
    "best_class", "classify_udp_payload", "clean", "compute_features",
    "cross_validate", "decode_packet", "default_taxonomy", "feature_importances", "generate",
    "load_model", "open_capture", "parse_rtp_header", "predict_proba", "prune_features",
    "read_csv", "read_flows", "read_packets", "save_model", "train", "write_csv",
]


def test_exports_resolve_and_star_import_binds_them():
    assert sorted(camsieve.__all__) == sorted(EXPORTS)
    assert [name for name in camsieve.__all__ if not hasattr(camsieve, name)] == []
    namespace = {}
    exec("from camsieve import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(camsieve.__all__)
    assert all(namespace[name] is getattr(camsieve, name) for name in namespace)


def test_every_error_survives_a_pickle_round_trip():
    # a forked worker's exception reaches the parent through pickle
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.CamsieveError)]
    assert len(classes) > 10
    for cls in classes:
        exc = cls(5, "bad cell") if cls is errors.RowParseError else cls("what went wrong")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc) and vars(copy) == vars(exc)


def test_the_cli_module_holds_commands_only():
    # a library call lives in the module whose job it is; cli.py holds the
    # commands, their parser and entry points, and private helpers
    module = ast.parse((Path(camsieve.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    public = [statement.name for statement in module.body
              if isinstance(statement, ast.FunctionDef) and not statement.name.startswith("_")]
    assert [name for name in public if not name.startswith("cmd_")
            and name not in ("main", "entrypoint", "build_parser")] == []


def test_every_top_level_name_has_a_caller_in_the_package():
    # a function, class or constant with no caller in the package is dead, or
    # a second copy of a rule the package applies elsewhere; a test that needs
    # it as a reference keeps it in tests/oracles.py. The re-exports in
    # __init__.py are not callers, nor is a definition's own body
    statements = [(path.name, statement)
                  for path in sorted(Path(camsieve.__file__).parent.glob("*.py"))
                  if path.name != "__init__.py"
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]

    def defined(statement):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            return [statement.name]
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)]

    def referenced(statement):
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        return names

    references = [referenced(statement) for _, statement in statements]
    statements_naming = Counter(name for names in references for name in names)
    assert [(module, name)
            for (module, statement), own in zip(statements, references)
            for name in defined(statement)
            if statements_naming[name] - (name in own) == 0] == []


def test_every_defaulted_parameter_of_a_public_function_is_supplied_in_the_package():
    # a public top-level function's parameter with a default that no call in
    # the package passes is an option nothing sets: its default is the one
    # behaviour, and the code that chooses between the two is dead. A call
    # supplies it by keyword, by position, or as a key of a dict(...) that
    # it splats with **. cli.main's argv is exempt: the console script passes
    # none, and tests and the benchmark pass one
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(camsieve.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    defaulted = {}  # function name -> {parameter: position, or None if keyword-only}
    for module in trees:
        for statement in module.body:
            if isinstance(statement, ast.FunctionDef) and not statement.name.startswith("_"):
                args = statement.args
                positional = args.posonlyargs + args.args
                params = {a.arg: i for i, a in enumerate(positional)
                          if i >= len(positional) - len(args.defaults)}
                params.update((a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None)
                if params:
                    defaulted[statement.name] = params

    supplied = set()
    for module in trees:
        for statement in module.body:
            # keys of each name bound to dict(...) in this statement
            dict_keys = {}
            for node in ast.walk(statement):
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name) and node.value.func.id == "dict"):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            dict_keys.setdefault(target.id, set()).update(
                                kw.arg for kw in node.value.keywords if kw.arg)
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in defaulted:
                    continue
                positions = sum(not isinstance(arg, ast.Starred) for arg in node.args)
                for kw in node.keywords:
                    if kw.arg is not None:
                        supplied.add((name, kw.arg))
                    elif isinstance(kw.value, ast.Name):
                        supplied.update((name, key) for key in dict_keys.get(kw.value.id, ()))
                supplied.update((name, param) for param, i in defaulted[name].items()
                                if i is not None and i < positions)

    unsupplied = sorted((function, param) for function, params in defaulted.items()
                        for param in params if (function, param) not in supplied)
    assert unsupplied == [("main", "argv")]
