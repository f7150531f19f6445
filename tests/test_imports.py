import os
import subprocess
import sys

import pytest

import sdgqc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: every name the package exports, by the module that defines it
EXPORTS = {
    "fields": ("Field", "GF2", "GF4", "GF16", "ALPHA", "OMEGA", "field_for"),
    "codes": ("EUCLIDEAN", "HERMITIAN", "EnumerationBudgetExceeded", "LinearCode", "extended_hamming_code",
              "load", "loads"),
    "constructions": ("block_rotate", "crt_components", "cubic_code", "cubic_map", "deinterleave", "direct_sum",
                      "direct_sum_gqc", "interleave", "is_gqc_invariant", "quintic_code", "quintic_map",
                      "section_shift"),
    "bounds": ("count_words_by_type",),
    "census": ("sample_self_dual",),
}
SUBMODULES = ("fields", "codes", "constructions", "mass", "bounds", "census")


def loaded_after(code: str) -> set:
    """The modules loaded once code has run in a fresh `python3 -S` (no site
    hooks), with the package's sources first on the path."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\nprint('\\n'.join(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def package_modules(modules: set) -> set:
    return {m for m in modules if m == "sdgqc" or m.startswith("sdgqc.")}


def test_cli_parser_loads_no_other_package_module():
    modules = loaded_after("import sdgqc.cli\nsdgqc.cli.build_parser()")
    assert package_modules(modules) == {"sdgqc", "sdgqc.cli"}
    assert not {"dataclasses", "typing", "fractions", "decimal"} & modules


def test_a_command_loads_only_the_modules_it_uses():
    modules = loaded_after("import sdgqc.cli\nsdgqc.cli.main(['mass', '--q', '2', '--ell', '8'])")
    assert package_modules(modules) == {"sdgqc", "sdgqc.cli", "sdgqc.mass"}


@pytest.mark.parametrize("argv, parses", [
    (["census", "--q", "2", "--n", "8"], False),
    (["maxdist", "--ell", "40", "--mode", "exact"], False),
    (["maxdist", "--help"], True),
])
def test_only_help_and_refusals_load_argparse(argv, parses):
    # a well-formed command is parsed off the option table; argparse is
    # loaded for the forms that table parse declines, such as --help
    modules = loaded_after(f"import sdgqc.cli\nsdgqc.cli.main({argv!r})")
    assert ("argparse" in modules) == parses


def test_no_module_loads_dataclasses_or_typing():
    modules = loaded_after("".join(f"import sdgqc.{name}\n" for name in (*SUBMODULES, "cli")))
    assert package_modules(modules) == {"sdgqc", "sdgqc.cli", *(f"sdgqc.{name}" for name in SUBMODULES)}
    assert not {"dataclasses", "typing"} & modules


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_lazy_exports_are_the_defining_modules_objects(module):
    defining = getattr(__import__(f"sdgqc.{module}"), module)
    for name in EXPORTS[module]:
        assert getattr(sdgqc, name) is getattr(defining, name)
        assert name in sdgqc.__all__ and name in dir(sdgqc)


def test_submodules_resolve_as_package_attributes():
    for name in SUBMODULES:
        assert getattr(sdgqc, name) is sys.modules[f"sdgqc.{name}"]
    assert sdgqc.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sdgqc.no_such_name
