"""The public surface: one export list, one gain vocabulary, no stale names."""

import dataclasses
import io
import re
import tokenize
from pathlib import Path

import pytest

import phaseseek
from phaseseek import agent, analysis, fields

ROOT = Path(__file__).resolve().parent.parent


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(phaseseek.__all__) == len(set(phaseseek.__all__))
    for name in phaseseek.__all__:
        assert hasattr(phaseseek, name), name


@pytest.mark.parametrize("name", [
    "heading_rate", "sample_window", "synth_traveling_field",
    "radial_spectral_truth", "radial_field_eval", "RadialFieldParams", "step",
    "lambert_w0", "lambert_wm1", "magnitude_phase", "radial_velocity",
    "gain_value", "phase_gradient", "radial_vector_field", "sensory_output",
    "TravelingWaveField", "TravelingWaveMode", "GridPeriodError",
])
def test_deleted_wrappers_are_gone(name):
    assert name not in phaseseek.__all__
    with pytest.raises(ImportError):
        exec(f"from phaseseek import {name}", {})


def test_the_traveling_wave_is_a_test_fixture():
    # the library ships the paper's fields; RadialField is its one
    # analytic field and brings its own analytic_mode
    for name in ("TravelingWaveField", "TravelingWaveMode"):
        assert not hasattr(fields, name), name
    assert not hasattr(phaseseek.Field, "analytic_mode")
    assert "analytic_mode" in vars(phaseseek.RadialField)


def _uncommented_lines(path):
    """path's lines, with the # comments of a .py file cut off."""
    text = path.read_text()
    lines = text.splitlines()
    if path.suffix == ".py":
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                row, col = token.start
                lines[row - 1] = lines[row - 1][:col]
    return lines


def test_every_public_name_is_used_outside_the_tests():
    # a name that only tests use belongs in tests/; the export list in
    # __init__.py, a name's own def or class line and a comment do not
    # count
    sources = [*sorted((ROOT / "src" / "phaseseek").glob("*.py")),
               ROOT / "README.md", *sorted((ROOT / "tools").glob("*.py")),
               *sorted((ROOT / "perfbench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    lines = [line for path in sources if path.name != "__init__.py"
             for line in _uncommented_lines(path)]
    unused = [name for name in phaseseek.__all__ if not any(
        re.search(rf"\b{name}\b", line)
        and not re.match(rf"\s*(def|class) {name}\b", line)
        for line in lines)]
    assert unused == []


def test_every_public_record_that_checks_itself_is_frozen():
    # a record checked in __post_init__ is frozen, so construction (or
    # dataclasses.replace, which re-runs the checks) is the only way in
    checked = {name for name in phaseseek.__all__
               if dataclasses.is_dataclass(getattr(phaseseek, name))
               and hasattr(getattr(phaseseek, name), "__post_init__")}
    assert {"BundleField", "GridFieldBundle", "PortraitGrid",
            "RadialField"} <= checked
    assert [name for name in sorted(checked) if not getattr(
        phaseseek, name).__dataclass_params__.frozen] == []


def test_bounds_is_the_one_domain_rule():
    # a field limits its domain by setting bounds; no second rule exists
    assert phaseseek.Field.bounds is None
    assert not hasattr(phaseseek.Field, "in_domain")


def test_analytic_mode_is_the_one_analytic_contract():
    # a field is analytic when it defines analytic_mode: Field holds no
    # class flag that says so a second time, no analytic_spectra stub that
    # raises for the rest and no one-sample eval beside eval_windows
    members = {name for name in [*vars(phaseseek.Field),
                                 *phaseseek.Field.__annotations__]
               if not name.startswith("_")}
    assert members == {"period", "bounds", "eval_windows", "eval_window",
                       "window_coeffs", "describe"}


def test_gain_kind_is_one_object():
    assert phaseseek.GainKind is agent.GainKind is analysis.GainKind
    assert phaseseek.GainLaw is agent.GainLaw is analysis.GainLaw
    for stale in ("gain_profile", "radial_vector_field"):
        assert not hasattr(analysis, stale), stale
    for stale in ("_gain_fn", "gain_value"):
        assert not hasattr(agent, stale), stale
    for stale in ("STATIC", "PROPORTIONAL", "INVERSE", "GAIN_KINDS",
                  "_kind_str"):
        assert not hasattr(analysis, stale), stale


def test_radial_field_has_no_spectral_magnitude():
    field = phaseseek.RadialField(6.5)
    assert field.ell == 6.5
    assert not hasattr(field, "spectral_magnitude")
    assert not hasattr(field, "params")


def test_the_readme_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    # the python block under "Library quickstart", run as written; it
    # writes orbit.csv into the working directory
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "conditional_bounded"
    assert lines[1].split()[0] == "t_end"
    assert (tmp_path / "orbit.csv").stat().st_size > 0
