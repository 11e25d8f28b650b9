import json
import os
import site
import subprocess
import sys

import padicharm

PUBLIC = {
    "ArgumentError", "EngineDisagreement", "PrecisionError", "SizeCapError",
    "StructureConstants", "a_p_set", "bp_count", "cp", "free_p", "is_prime", "pi_p_mod",
    "structure_constants", "to_digits", "vp", "vp_factorial", "vp_int",
    "ExpansionVerdict", "h_p_mod", "h_prime_mod", "recip_esym", "recip_power_sum",
    "vp_H_expansion",
    "CheckReport",
    "ChildStats", "PTree", "build_tree", "f_sequence",
    "exact_H", "exact_H_table", "stirling", "stirling_mod", "vp_H", "vp_H_sweep",
}


def test_all_names_the_imported_api_and_no_submodule():
    assert len(padicharm.__all__) == len(PUBLIC)
    assert set(padicharm.__all__) == PUBLIC
    namespace = {}
    exec("from padicharm import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    # the submodules stay reachable as attributes, but * does not bind them
    assert padicharm.tree.build_tree is padicharm.build_tree


def test_imports_only_the_standard_library():
    # A fresh interpreter that runs no site hooks, so nothing but padicharm
    # and what it imports is loaded, though the installed packages stay
    # importable: numpy may be installed, but padicharm must never need it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(padicharm.__file__)))
    code = (
        "import json, sys; import padicharm.cli, padicharm.checks; "
        "print(json.dumps(sorted({name.split('.')[0] for name in sys.modules})))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, *site.getsitepackages()])},
    ).stdout
    loaded = json.loads(out)
    assert "padicharm" in loaded
    outside = [name for name in loaded
               if name not in ("padicharm", "__main__") and name not in sys.stdlib_module_names]
    assert outside == []
