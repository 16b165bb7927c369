import ast
from collections import Counter
from pathlib import Path

import camsieve

# the public names; a name leaves or joins the package API only with this list
EXPORTS = [
    "DecisionTreeModel", "FEATURE_NAMES", "FlowState", "LabelTaxonomy", "LabeledRecord",
    "PacketRecord", "ProtocolHint", "SynthProfile", "TrafficKind", "assemble_flows",
    "best_class", "classify_udp_payload", "clean", "compute_features",
    "cross_validate", "decode_packet", "default_taxonomy", "feature_importances", "generate",
    "load_model", "open_capture", "parse_rtp_header", "predict_proba", "prune_features",
    "read_csv", "read_packets", "save_model", "train", "write_csv",
]


def test_exports_resolve_and_star_import_binds_them():
    assert sorted(camsieve.__all__) == sorted(EXPORTS)
    assert [name for name in camsieve.__all__ if not hasattr(camsieve, name)] == []
    namespace = {}
    exec("from camsieve import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(camsieve.__all__)
    assert all(namespace[name] is getattr(camsieve, name) for name in namespace)


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
