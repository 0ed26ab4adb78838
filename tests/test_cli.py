import csv
import hashlib
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from zkbstrip import (
    Field,
    InitialData,
    StripGeometry,
    TimeSeries,
    evolve,
    make_initial_field,
    run,
    weighted_inner,
)
from zkbstrip import cli, theory
from zkbstrip.cli import (
    CSV_HEADER,
    ConfigError,
    cdep_experiment,
    fmt,
    load_config,
    main,
    paper_ref_config,
    parse_config,
    read_manifest,
    read_series_csv,
    verify_suite,
)
from zkbstrip.fields import _band, random_blocks
from zkbstrip.solver import BlowUpError, Trajectory, _stepper
from zkbstrip.theory import gn_sides, steklov_sides, sup_sides

from conftest import inequality, random_field, step_rows


def base_doc(**overrides):
    doc = {
        "schema": 1,
        "geometry": {"B": math.pi, "Lx": 12.0, "Nx": 128, "Ny": 16, "b": "auto"},
        "solver": {"dt": 1e-3, "t_end": 1.5, "output_every": 10},
        "initial": {"kind": "gaussian_mode", "amplitude": 0.15, "s": 1.5, "j": 1},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    return doc


# dt = 1 on a 32 x 4 grid: the run blows up at t = 1
BLOW_UP_DOC = {
    "schema": 1,
    "geometry": {"B": math.pi, "Lx": 10.0, "Nx": 32, "Ny": 4, "b": 0.0},
    "solver": {"dt": 1.0, "t_end": 30.0},
    "initial": {"kind": "gaussian_mode", "amplitude": 40.0, "s": 2.0},
}
# cdep's unit bump (s = 1) is refused on BLOW_UP_DOC's 32 x points (9.3e-4 of
# its squared norm outside the 2/3 band) and on 52 (3.4e-8), and accepted on
# 56 (5.4e-9; its band projection has tail mass 4.3e-10)
CDEP_BLOW_UP_GEOMETRY = {**BLOW_UP_DOC["geometry"], "Nx": 56}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(json.dumps(base_doc()))
        assert cfg.solver.convection == 0
        assert cfg.experiment.fit_window == "last-half-clean"

    def test_auto_weight_resolved(self):
        cfg = parse_config(json.dumps(base_doc()))
        assert cfg.raw["geometry"]["b"] == "auto"
        assert cfg.geometry.b == pytest.approx(0.1, abs=1e-14)

    def test_explicit_weight(self):
        doc = base_doc(geometry={"b": 0.05})
        cfg = parse_config(json.dumps(doc))
        assert cfg.geometry.b == 0.05

    def test_unknown_key(self):
        doc = base_doc()
        doc["geometry"]["Nz"] = 4
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config(json.dumps(doc))
        assert "Nz" in str(info.value)

    def test_missing_required(self):
        doc = base_doc()
        del doc["solver"]["dt"]
        with pytest.raises(ConfigError, match="missing required key: solver.dt"):
            parse_config(json.dumps(doc))

    def test_type_mismatch_path(self):
        doc = base_doc()
        doc["geometry"]["B"] = "wide"
        with pytest.raises(ConfigError, match="geometry.B"):
            parse_config(json.dumps(doc))

    def test_schema_required(self):
        doc = base_doc()
        del doc["schema"]
        with pytest.raises(ConfigError, match="schema"):
            parse_config(json.dumps(doc))
        doc = base_doc(schema=2)
        with pytest.raises(ConfigError, match="unsupported schema"):
            parse_config(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_diss_per_step_accepted_and_ignored(self):
        plain = parse_config(json.dumps(base_doc())).solver
        for flag in (True, False):
            doc = base_doc(solver={"diss_per_step": flag})
            assert parse_config(json.dumps(doc)).solver == plain
        doc = base_doc(solver={"diss_per_step": 1})
        with pytest.raises(ConfigError,
                           match="type mismatch at solver.diss_per_step"):
            parse_config(json.dumps(doc))

    def test_scheme_accepts_only_etdrk4(self):
        doc = base_doc(solver={"scheme": "exponential-RK4"})
        named = parse_config(json.dumps(doc))
        assert named.solver == parse_config(json.dumps(base_doc())).solver
        doc = base_doc(solver={"scheme": "IMEX-CNAB2"})
        with pytest.raises(ConfigError, match="solver.scheme"):
            parse_config(json.dumps(doc))

    def test_dealias_accepts_only_true(self):
        plain = parse_config(json.dumps(base_doc())).solver
        doc = base_doc(solver={"dealias": True})
        assert parse_config(json.dumps(doc)).solver == plain
        for value in (False, 1, "true"):
            doc = base_doc(solver={"dealias": value})
            with pytest.raises(ConfigError,
                               match="invalid value at solver.dealias"):
                parse_config(json.dumps(doc))

    def test_readme_config_example(self):
        # the README's annotated config stays a valid spelling of paper-ref
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(re.sub(r"//.*", "", block))
        ref = paper_ref_config()
        assert (cfg.geometry, cfg.solver) == (ref.geometry, ref.solver)

    @pytest.mark.parametrize("block,key,literal", [
        ("geometry", "Nx", "Infinity"),
        ("geometry", "Ny", "NaN"),
        ("geometry", "Lx", "1e400"),
        ("geometry", "b", "NaN"),
        ("solver", "t_end", "Infinity"),
        ("solver", "t_end", "NaN"),
        ("solver", "output_every", "Infinity"),
        ("solver", "output_every", "2.7"),
        ("solver", "convection", "1.5"),
        ("initial", "j", "1.9"),
        ("initial", "amplitude", "-Infinity"),
        ("initial", "values", '[["a"]]'),
        ("initial", "values", "[[1.0, 2.0], [3.0]]"),
        ("initial", "values", "[[1.0, NaN]]"),
    ])
    def test_non_finite_or_non_integer_names_path(self, block, key, literal):
        doc = base_doc()
        doc[block][key] = "@"
        text = json.dumps(doc).replace('"@"', literal)
        with pytest.raises(ConfigError, match=f"{block}.{key}"):
            parse_config(text)

    def test_bool_is_not_number(self):
        doc = base_doc()
        doc["solver"]["dt"] = True
        with pytest.raises(ConfigError, match="solver.dt"):
            parse_config(json.dumps(doc))

    def test_experiment_validation(self):
        doc = base_doc(experiment={"thresholds": "weak"})
        assert parse_config(json.dumps(doc)).experiment.thresholds == "weak"
        doc = base_doc(experiment={"fit_window": [1.0, 2.0]})
        assert parse_config(json.dumps(doc)).experiment.fit_window == [1.0, 2.0]
        doc = base_doc(experiment={"fit_window": "everything"})
        with pytest.raises(ConfigError, match="fit_window"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("window", [
        [True, 2], [float("nan"), 1], ["a", 1], [1, float("inf")], [5, 1],
        [1, 1],
    ])
    def test_fit_window_rejects_bad_bounds(self, window):
        doc = base_doc(experiment={"fit_window": window})
        with pytest.raises(ConfigError, match=r"experiment\.fit_window"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("norm", [-0.5, 0])
    def test_target_norm_must_be_positive(self, norm):
        doc = base_doc(initial={"target_l2_norm": norm})
        with pytest.raises(ConfigError,
                           match="invalid initial block: target_l2_norm"):
            parse_config(json.dumps(doc))

    def test_custom_samples_config(self):
        doc = base_doc()
        doc["initial"] = {
            "kind": "custom_samples",
            "values": np.zeros((128, 16)).tolist(),
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.initial.kind == "custom_samples"
        assert cfg.initial.values.shape == (128, 16)


class TestPaperRefPreset:
    def test_pinned_values(self):
        cfg = paper_ref_config()
        g = cfg.geometry
        assert (g.B, g.Lx, g.Nx, g.Ny) == (math.pi, 30.0, 1024, 32)
        assert g.b == pytest.approx(0.1, abs=1e-14)
        assert cfg.solver.dt == 1e-3
        assert cfg.solver.t_end == 40.0
        assert cfg.initial.target_l2_norm == pytest.approx(0.16875, abs=1e-14)

    def test_loadable_by_name(self):
        assert load_config("paper-ref").raw == paper_ref_config().raw

    def test_unknown_path(self):
        with pytest.raises(ConfigError, match="not a file or known preset"):
            load_config("no-such-config.json")


class TestFormatting:
    def test_seventeen_significant_digits(self):
        s = fmt(math.pi)
        mantissa = s.split("e")[0].replace(".", "").lstrip("-")
        assert len(mantissa) == 17
        assert float(s) == pytest.approx(math.pi, abs=1e-16)


class TestConstantsCommand:
    def test_reference_width(self, capsys):
        assert main(["constants", "--B", str(math.pi)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b_star"] == pytest.approx(0.1, abs=1e-14)
        assert payload["chi"] == pytest.approx(0.025, abs=1e-14)
        assert payload["reg_threshold"] == pytest.approx(0.375, abs=1e-14)
        assert payload["weak_threshold"] == pytest.approx(0.1875, abs=1e-14)

    def test_half_pi(self, capsys):
        assert main(["constants", "--B", str(math.pi / 2)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["b_star"] == pytest.approx(0.2898979485566356, abs=1e-12)

    def test_invalid_width(self, capsys):
        for width in ("-1.0", "inf", "nan"):
            assert main(["constants", "--B", width]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == ""


class TestSimulateCommand:
    def test_zero_amplitude_run(self, tmp_path, capsys):
        doc = base_doc(initial={"amplitude": 0.0},
                       solver={"t_end": 0.1, "output_every": 20})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        series = read_series_csv(out / "series.csv",
                                 parse_config(json.dumps(doc)).geometry)
        assert all(s.l2 == 0.0 for s in series.samples)
        manifest = read_manifest(out)
        assert manifest["status"] == "clean"
        assert manifest["resolved_b"] == pytest.approx(0.1, abs=1e-14)
        assert "seed" not in manifest  # simulate takes no seed

    def test_reruns_bit_identical(self, tmp_path):
        doc = base_doc(solver={"t_end": 0.2, "output_every": 20})
        cfg_path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_non_numeric_values_is_usage_error(self, tmp_path, capsys):
        doc = base_doc(initial={"kind": "custom_samples", "values": [["a"]]})
        out = tmp_path / "run"
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "initial.values" in err
        assert not out.exists()

    @pytest.mark.parametrize("block,key", [("geometry", "B"),
                                           ("initial", "amplitude")])
    def test_integer_too_large_for_a_float_is_usage_error(
            self, tmp_path, capsys, block, key):
        doc = base_doc()
        doc[block][key] = 10**400
        out = tmp_path / "run"
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: invalid value at {block}.{key}: expected finite number")
        assert not out.exists()

    def test_contaminated_run_exit_code(self, tmp_path):
        doc = base_doc(
            geometry={"Lx": 10.0, "Nx": 128, "Ny": 16},
            solver={"t_end": 2.0, "output_every": 100},
            initial={"amplitude": 0.4, "s": 2.0},
        )
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        code = main(["simulate", "--config", cfg_path, "--out", str(out)])
        assert code == 2
        manifest = read_manifest(out)
        assert manifest["status"] == "contaminated"
        assert "contaminated_at" in manifest

    def test_blow_up_exit_code_and_manifest(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BLOW_UP_DOC)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "blow-up"
        assert manifest["blow_up_time"] > 0
        # and no decay fit is made from it
        capsys.readouterr()
        assert main(["fit-decay", "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == "error: run blew up; no decay fit possible\n")

    # each rejection names what it rejects
    @pytest.mark.parametrize("doc,named", [
        ([base_doc()], "config document must be a JSON object"),
        ({**base_doc(), "solver": [1.0]},
         "type mismatch at solver: expected object"),
        ({k: v for k, v in base_doc().items() if k != "geometry"},
         "missing required key: geometry"),
        (base_doc(geometry={"b": "x"}),
         'type mismatch at geometry.b: expected number or "auto"'),
        (base_doc(experiment={"thresholds": "strong"}),
         "invalid experiment block: thresholds must be 'regular' or 'weak'"),
        (base_doc(initial={"kind": 3}),
         "type mismatch at initial.kind: expected string"),
        (base_doc(initial={"s": 0}),
         "invalid initial block: gaussian width s must be positive"),
        (base_doc(initial={"kind": "custom_samples"}),
         "invalid initial block: custom_samples requires explicit values"),
        # the Nyquist slot of Nx = 128 is n = 64, k = 64*pi/Lx
        (base_doc(initial={"kind": "single_mode", "k": 65 * math.pi / 12}),
         f"wavenumber k={65 * math.pi / 12} not representable on the grid"),
        (base_doc(initial={"amplitude": 0.0, "target_l2_norm": 0.1}),
         "cannot rescale a zero field to a target norm"),
        # the 2/3 band of a 64 x 12 grid: slots n < 22, modes j <= 8
        (base_doc(geometry={"Nx": 64, "Ny": 12}, initial={"j": 10}),
         "y-mode j=10 outside the 2/3 band j <= 8"),
        (base_doc(geometry={"Nx": 64, "Ny": 12},
                  initial={"kind": "single_mode", "k": 25 * math.pi / 12}),
         f"wavenumber k={25 * math.pi / 12} outside the 2/3 band n < 22"),
    ], ids=["document", "block", "missing-block", "weight-rate", "thresholds",
            "kind", "gaussian-width", "custom-without-values",
            "beyond-nyquist", "zero-to-target", "mode-beyond-band",
            "slot-beyond-band"])
    def test_rejected_config_exits_1(self, tmp_path, capsys, doc, named):
        cfg_path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and "Traceback" not in err

    def test_bad_config_exit(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_checksum_validation(self, tmp_path):
        doc = base_doc(solver={"t_end": 0.1, "output_every": 100})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        main(["simulate", "--config", cfg_path, "--out", str(out)])
        read_manifest(out)  # passes
        (out / "series.csv").write_text("tampered")
        with pytest.raises(ConfigError, match="checksum mismatch"):
            read_manifest(out)


@pytest.fixture(scope="module")
def decay_run_dir(tmp_path_factory):
    """A small clean-ish decay run persisted to disk for fit tests."""
    tmp = tmp_path_factory.mktemp("decayrun")
    doc = base_doc()
    cfg_path = write_config(tmp, doc)
    out = tmp / "run"
    code = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert code in (0, 2)
    return out


class TestFitDecayCommand:
    def test_default_window_compliant(self, decay_run_dir, capsys):
        code = main(["fit-decay", "--out", str(decay_run_dir), "--norm", "w_l2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["compliant"] is True
        assert payload["fitted_rate"] >= payload["chi"] * 0.95

    def test_h1_norm(self, decay_run_dir, capsys):
        code = main(["fit-decay", "--out", str(decay_run_dir), "--norm", "w_h1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["norm"] == "w_h1"

    def test_bad_window(self, decay_run_dir, capsys):
        assert main(["fit-decay", "--out", str(decay_run_dir),
                     "--t0", "1.0", "--t1", "0.5"]) == 1

    def test_missing_run_dir(self, tmp_path):
        assert main(["fit-decay", "--out", str(tmp_path / "ghost")]) == 1

    def test_window_into_contaminated_segment(self, tmp_path, capsys):
        # contaminated at t = 0.14 on this 64 x 16 grid, clean until 0.13
        doc = base_doc(geometry={"Lx": 6.0, "Nx": 64},
                       solver={"t_end": 0.5, "output_every": 10})
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        capsys.readouterr()
        assert main(["fit-decay", "--out", str(out), "--t1", "0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fit window [")
        assert err.endswith("reaches into the contaminated segment "
                            "(clean until t = 0.13)\n")

    def test_empty_series_is_usage_error(self, tmp_path, capsys):
        # a checksummed run directory whose series.csv is empty
        doc = base_doc(solver={"t_end": 0.1, "output_every": 100})
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        (out / "series.csv").write_text("")
        cli.write_manifest(out, parse_config(json.dumps(doc)), status="clean",
                           started="")
        capsys.readouterr()
        assert main(["fit-decay", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "series.csv, line 1" in err

    def test_header_only_series_is_usage_error(self, tmp_path, capsys):
        # a checksummed run directory whose series.csv has no samples
        doc = base_doc(solver={"t_end": 0.1, "output_every": 100})
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        (out / "series.csv").write_text(CSV_HEADER + "\n")
        cli.write_manifest(out, parse_config(json.dumps(doc)), status="clean",
                           started="")
        capsys.readouterr()
        assert main(["fit-decay", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "series.csv has no samples" in err
        assert "contaminated" not in err


@pytest.fixture(scope="module")
def small_run_dir(tmp_path_factory):
    """A short checksummed run directory, copied by tests that damage it."""
    tmp = tmp_path_factory.mktemp("smallrun")
    doc = base_doc(solver={"t_end": 0.1, "output_every": 100})
    out = tmp / "run"
    assert main(["simulate", "--config", write_config(tmp, doc),
                 "--out", str(out)]) == 0
    return out


def _manifest_edit(edit):
    """Run-directory damage: rewrite manifest.json through ``edit``."""
    def damage(out):
        path = out / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def _without(*keys):
    """Run-directory damage: delete the manifest entry at the path ``keys``."""
    def edit(m):
        node = m
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return m
    return _manifest_edit(edit)


def _outside_entry(out):
    """Run-directory damage: the manifest also lists ../x, a file outside
    the run directory whose checksum matches."""
    (out.parent / "x").write_text("x\n")
    _manifest_edit(lambda m: {**m, "files": {
        **m["files"], "../x": {"sha256": hashlib.sha256(b"x\n").hexdigest()}}})(out)


def _append_last_row(out):
    """Run-directory damage: a series.csv that still parses, but is not
    the file the manifest's checksum was taken of."""
    path = out / "series.csv"
    text = path.read_text()
    path.write_text(text + text.strip().splitlines()[-1] + "\n")


class TestMalformedManifest:
    """A manifest.json that parses but is not what write_manifest wrote,
    or a run file that no longer matches its checksum, ends fit-decay
    with ``error: ...`` naming the problem, and exit 1."""

    @pytest.mark.parametrize("damage,message", [
        (_manifest_edit(lambda m: ["not", "an", "object"]),
         "does not hold a JSON object"),
        (_without("status"), "no 'status' key"),
        (_without("config"), "no 'config' key"),
        (_without("files"), "no 'files' key"),
        (_manifest_edit(lambda m: {**m, "files": ["series.csv"]}),
         "'files' is not a JSON object"),
        (_without("files", "series.csv", "sha256"),
         "no 'sha256' key for series.csv"),
        (_append_last_row, "checksum mismatch for series.csv"),
        (_without("files", "series.csv"), "does not list series.csv"),
        (_outside_entry, "names '../x', not a plain file name"),
    ], ids=["not-an-object", "no-status", "no-config", "no-files",
            "files-not-an-object", "no-sha256", "tampered-series",
            "series-not-listed", "file-outside-run"])
    def test_fit_decay_names_the_problem(self, small_run_dir, tmp_path, capsys,
                                         damage, message):
        out = tmp_path / "run"
        shutil.copytree(small_run_dir, out)
        damage(out)
        capsys.readouterr()
        assert main(["fit-decay", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err
        with pytest.raises(ConfigError, match=message):
            read_manifest(out)

    @pytest.mark.parametrize("name", ["", "..", "/x"])
    def test_only_plain_file_names(self, small_run_dir, tmp_path, name):
        # "" and ".." are their own Path.name, but name the run directory
        # and its parent
        out = tmp_path / "run"
        shutil.copytree(small_run_dir, out)
        _manifest_edit(lambda m: {**m, "files": {
            **m["files"], name: {"sha256": "0" * 64}}})(out)
        with pytest.raises(ConfigError, match="not a plain file name"):
            read_manifest(out)

    def test_fit_decay_rejects_undealiased_run(self, small_run_dir, tmp_path,
                                               capsys):
        # a run stored with "dealias": false cannot be reproduced
        out = tmp_path / "run"
        shutil.copytree(small_run_dir, out)

        def undealiased(m):
            m["config"]["solver"]["dealias"] = False
            return m
        _manifest_edit(undealiased)(out)
        capsys.readouterr()
        assert main(["fit-decay", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "solver.dealias" in err


class TestReadSeriesCsv:
    ROW = ",".join(["0.0"] * 7)

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("t,l2\n", 1),
        (f"{CSV_HEADER}\n{ROW}\n0.1,1.0,0.0\n", 3),
        (f"{CSV_HEADER}\n{ROW},0.0\n", 2),
        (f"{CSV_HEADER}\n0.1,x,0,0,0,0,0\n", 2),
    ], ids=["empty", "wrong-header", "short-row", "long-row", "non-number"])
    def test_bad_input_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "series.csv"
        path.write_text(text)
        geom = parse_config(json.dumps(base_doc())).geometry
        with pytest.raises(ConfigError) as info:
            read_series_csv(path, geom)
        assert f"{path}, line {line}" in str(info.value)


class TestVerifyCommand:
    def test_steklov_suite(self, capsys):
        assert main(["verify", "--suite", "steklov", "--samples", "25",
                     "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] is True
        assert payload["worst_margin"] > 0

    def test_gn_suite(self, capsys):
        assert main(["verify", "--suite", "gn", "--samples", "10",
                     "--seed", "3"]) == 0

    def test_sup_suite(self, capsys):
        assert main(["verify", "--suite", "sup", "--samples", "10",
                     "--seed", "5"]) == 0

    def test_small_energy_samples(self):
        # index >= 1 samples are short seeded runs
        from zkbstrip.cli import _energy_sample

        assert _energy_sample(1, seed=0) < 1e-6

    def test_zero_samples_rejected(self, capsys):
        assert main(["verify", "--suite", "gn", "--samples", "0"]) == 1
        assert "samples must be >= 1" in capsys.readouterr().err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "everything"])
        assert info.value.code == 1


# the corpus suites' checks of one field, as verify_suite makes them
PER_FIELD = {
    "steklov": lambda u: [inequality(steklov_sides, u)],
    "gn": lambda u: [inequality(gn_sides, u)],
    "sup": lambda u: inequality(sup_sides, u, ((0.1, 1.0), (1.0, 1.0), (10.0, 1.0))),
}


def _margin(check):
    return (check.rhs - check.lhs) / check.rhs


class TestCorpusStacks:
    """verify_suite checks its corpus a stack of fields at a time; its
    report is that of the fields checked one at a time."""

    GEOM = cli._verification_geometry()

    def test_stacks_of_eight(self):
        assert cli.STACK_GRID_VALUES // (self.GEOM.Nx * self.GEOM.Ny) == 8

    @pytest.mark.parametrize("samples", [1, 7, 8, 9, 17, 200])
    @pytest.mark.parametrize("suite", ["steklov", "gn", "sup"])
    def test_matches_fields_one_at_a_time(self, suite, samples):
        # a stack of one, a partial last stack, and whole ones
        seed = 1000 + samples
        checks = [c for i in range(samples)
                  for c in PER_FIELD[suite](random_field(self.GEOM, seed + i))]
        report = verify_suite(suite, samples, seed)
        assert report["all_hold"] is all(c.holds for c in checks) is True
        worst = min(_margin(c) for c in checks)
        assert report["worst_margin"] == pytest.approx(worst, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("suite", ["steklov", "gn", "sup"])
    def test_a_violating_member_is_its_own(self, monkeypatch, suite):
        # one stack of nine whose member 5 has its (n = 0, j = 1) coefficient
        # scaled 1000 times: close to w_1(y), constant in x, its lhs/rhs is
        # far above every other member's in each inequality.  A slack
        # lowered between the two makes member 5 the one violation.
        g = self.GEOM
        blocks = cli.random_blocks

        def scaled(geom, seeds):
            c = blocks(geom, seeds)
            c[5, 0, 0] *= 1e3
            return c

        c = scaled(g, range(9))
        pad = [(0, 0), (0, g.Nx // 2 + 1 - c.shape[1]), (0, g.Ny - c.shape[2])]
        checks = [PER_FIELD[suite](Field(g, m)) for m in np.pad(c, pad)]
        ratio = [max(ch.lhs / ch.rhs for ch in cs) for cs in checks]
        others = max(ratio[:5] + ratio[6:])
        assert ratio[5] > 5.0 * others
        monkeypatch.setattr(theory, "RELATIVE_SLACK", math.sqrt(ratio[5] * others) - 1.0)
        monkeypatch.setattr(cli, "STACK_GRID_VALUES", 9 * g.Nx * g.Ny)
        monkeypatch.setattr(cli, "random_blocks", scaled)
        report = verify_suite(suite, 9, 0)
        assert report["all_hold"] is False
        worst = min(_margin(ch) for ch in checks[5])
        assert report["worst_margin"] == pytest.approx(worst, rel=1e-15, abs=0.0)
        # each member's verdict is its own
        lhs, rhs = cli._CORPUS_SUITES[suite](g, c)
        held = theory._holds(lhs[:, None], rhs.reshape(9, -1)).all(axis=1)
        assert held.tolist() == [k != 5 for k in range(9)]


class TestUsageErrors:
    """argparse's usage errors exit 1, not its own 2 (the contamination code)."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "paper-ref"],
        ["cdep", "--config", "x.json", "--eps", "-inf"],
        ["constants", "--B", "wide"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep", "--B", "3.0", "--amps", "0.5"],
        ["cdep", "--eps", "1e-3"],
    ])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, monkeypatch,
                                        command):
        # --out is checked before any run: cdep_experiment is never called
        experiments = []
        real_experiment = cli.cdep_experiment

        def spy(*args):
            experiments.append(args)
            return real_experiment(*args)

        monkeypatch.setattr(cli, "cdep_experiment", spy)
        doc = base_doc(solver={"t_end": 0.2})
        blocker = tmp_path / "afile"
        blocker.write_text("")
        code = main([*command, "--config", write_config(tmp_path, doc),
                     "--out", str(blocker / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert experiments == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["cdep", "--help"])
        assert info.value.code == 0
        assert "--eps" in capsys.readouterr().out


class TestSweepCommand:
    def test_single_cell_matches_fit_decay(self, tmp_path, capsys):
        doc = base_doc(experiment={"thresholds": "weak"})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--B", str(math.pi),
                     "--amps", "0.9", "--out", str(out), "--workers", "1"])
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[1].endswith("pass")

    def test_above_threshold_is_informational(self, tmp_path):
        doc = base_doc(experiment={"thresholds": "weak"})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--B", str(math.pi),
                     "--amps", "0.5,1.1", "--out", str(out), "--workers", "1"])
        assert code == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].endswith("pass")
        assert rows[1].endswith("outside theorem scope")

    def test_three_by_three_grid(self, tmp_path):
        # widths {pi/2, pi, 2pi} x amplitudes {0.5, 0.9, 1.1} of the weak
        # threshold: nine rows, the six within-threshold cells all pass
        doc = base_doc(experiment={"thresholds": "weak"},
                       solver={"t_end": 1.5, "output_every": 10})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        widths = f"{math.pi / 2},{math.pi},{2 * math.pi}"
        code = main(["sweep", "--config", cfg_path, "--B", widths,
                     "--amps", "0.5,0.9,1.1", "--out", str(out),
                     "--workers", "1"])
        assert code == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 9
        compliant = [r for r in rows if r.split(",")[4] == "true"]
        assert len(compliant) == 6
        assert all(r.endswith("pass") for r in compliant)
        outside = [r for r in rows if r.split(",")[4] == "false"]
        assert all(r.endswith("outside theorem scope") for r in outside)

    @pytest.mark.parametrize("widths,amps", [
        ("-1", "0.5"), ("inf", "0.5"), ("0", "0.5"),
        (str(math.pi), "-0.5"), (str(math.pi), "nan"), (str(math.pi), "0"),
    ])
    def test_bad_width_or_amplitude_is_usage_error(self, tmp_path, capsys,
                                                   widths, amps):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", "paper-ref", "--B", widths,
                     "--amps", amps, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()  # rejected before any cell ran

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        cfg_path = write_config(tmp_path, base_doc(solver={"t_end": 0.2}))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--B", str(math.pi),
                     "--amps", "0.5", "--out", str(out), "--workers", workers])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--workers" in err
        assert not out.exists()  # rejected before any cell ran

    def test_pool_no_larger_than_the_cell_count(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for the process pool: records its size and maps
            serially, so no worker process is started."""

            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        cfg_path = write_config(tmp_path, base_doc(solver={"t_end": 0.2}))
        for amps, out in (("0.5,0.9", "two"), ("0.5", "one")):
            code = main(["sweep", "--config", cfg_path, "--B", str(math.pi),
                         "--amps", amps, "--out", str(tmp_path / out),
                         "--workers", "64"])
            assert code == 0
        assert sizes == [2]  # and one cell runs without a pool

    def test_fit_window_from_template(self, tmp_path, capsys):
        # the cell's fit uses the template's experiment.fit_window, as
        # fit-decay on the cell directory does
        doc = base_doc(geometry={"Nx": 64, "Ny": 8},
                       solver={"t_end": 0.05, "output_every": 1},
                       experiment={"fit_window": [0, 0.03]})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        main(["sweep", "--config", cfg_path, "--B", str(math.pi),
              "--amps", "0.9", "--out", str(out)])
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        capsys.readouterr()
        main(["fit-decay", "--out", str(out / "cell_B0_a0")])
        report = json.loads(capsys.readouterr().out)
        assert report["window"] == [0.0, 0.03]
        assert row[7] == fmt(report["fitted_rate"])

    def test_error_status_with_commas_is_quoted(self, tmp_path, capsys):
        # 11 samples to t = 0.1, 6 of them in the last-half-clean window
        doc = base_doc(solver={"t_end": 0.1})
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--B", str(math.pi),
                     "--amps", "0.5", "--out", str(out), "--workers", "1"])
        assert code == 1  # the within-threshold cell failed
        text = (out / "summary.csv").read_text()
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2
        assert all(len(row) == 9 for row in rows)
        assert rows[1][6] == "error: need >= 10 samples in [0.05, 0.1], found 6"
        assert rows[1][7:] == ["nan", "fail"]

    def test_blown_up_cell(self, tmp_path):
        # 200 x the regular threshold 0.375: a norm of 75 blows up
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", write_config(tmp_path, BLOW_UP_DOC),
                     "--B", str(math.pi), "--amps", "200", "--out", str(out)])
        assert code == 0  # a cell outside theorem scope fails no verdict
        text = (out / "summary.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][6:] == ["blow-up", "nan", "outside theorem scope"]

    def test_pool_of_two_matches_in_process_for_custom_samples(self, tmp_path):
        # a real pool of 2 processes: the template RunConfig, with its
        # ndarray of samples, reaches the workers through the cell's partial
        geom = StripGeometry(B=math.pi, Lx=12.0, Nx=128, Ny=16)
        values = np.outer(np.exp(-(geom.x_grid() / 1.5) ** 2),
                          np.sin(np.pi * geom.y_grid() / geom.B))
        doc = base_doc(solver={"t_end": 0.2, "output_every": 10},
                       initial={"kind": "custom_samples", "values": values.tolist()})
        cfg_path = write_config(tmp_path, doc)
        outs = {w: tmp_path / f"workers{w}" for w in ("1", "2")}
        for w, out in outs.items():
            main(["sweep", "--config", cfg_path, "--B", str(math.pi),
                  "--amps", "0.5,0.9", "--out", str(out), "--workers", w])
        one, two = ((out / "summary.csv").read_text() for out in outs.values())
        assert one == two
        assert [row.split(",")[-3::2] for row in one.splitlines()[1:]] == [
            ["clean", "pass"]] * 2  # the custom samples ran, and were fitted
        for cell in ("cell_B0_a0", "cell_B0_a1"):
            assert ((outs["1"] / cell / "series.csv").read_bytes()
                    == (outs["2"] / cell / "series.csv").read_bytes())

    def test_one_config_parse_per_cell(self, tmp_path, monkeypatch):
        # the template once, then each cell's own config once
        texts = []
        parse = cli.parse_config
        monkeypatch.setattr(cli, "parse_config",
                            lambda text: texts.append(text) or parse(text))
        cfg_path = write_config(tmp_path, base_doc(solver={"t_end": 0.05}))
        main(["sweep", "--config", cfg_path, "--B", str(math.pi),
              "--amps", "0.5,0.9,1.1", "--out", str(tmp_path / "sweep")])
        assert len(texts) == 1 + 3

    def test_parallel_workers_match_serial(self, tmp_path):
        doc = base_doc(solver={"t_end": 0.5, "output_every": 10})
        cfg_path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        main(["sweep", "--config", cfg_path, "--B", str(math.pi),
              "--amps", "0.5,0.9", "--out", str(out1), "--workers", "1"])
        main(["sweep", "--config", cfg_path, "--B", str(math.pi),
              "--amps", "0.5,0.9", "--out", str(out2), "--workers", "2"])
        s1 = (out1 / "summary.csv").read_text()
        s2 = (out2 / "summary.csv").read_text()
        assert s1 == s2


def cdep_fields(config):
    """The base run's initial field and cdep's unit-norm bump."""
    geom = config.geometry
    base0 = make_initial_field(config.initial, geom).field
    bump = make_initial_field(
        InitialData(kind="gaussian_mode", amplitude=1.0, s=1.0,
                    x0=config.initial.x0, j=1, target_l2_norm=1.0),
        geom,
    ).field
    return base0, bump


def in_turn_cdep(config, eps):
    """The cdep report with the three runs advanced in turn, each alone,
    one sample at a time: the base to its sample k, stopping at its first
    contaminated one, then each perturbed run to k."""
    base0, bump = cdep_fields(config)
    base = evolve(base0, config.solver)
    perturbed = [evolve(base0 + e * bump, config.solver) for e in (eps, eps / 2.0)]
    samples, diffs = [], ([], [])
    for sample, u in base:
        samples.append(sample)
        if sample.contaminated:
            break
        for d, run_e in zip(diffs, perturbed):
            z = next(run_e)[1] - u
            d.append(weighted_inner(z, z))
    clean_end = TimeSeries(config.geometry, samples).clean_end()
    (full, final_full), (half, final_half) = (
        (max(d) / d[0], d[-1] / d[0]) for d in diffs)
    ratio, final_ratio = full / half, final_full / final_half
    return {"eps": eps, "growth_factor_eps": full, "growth_factor_half_eps": half,
            "ratio": ratio, "final_factor_eps": final_full,
            "final_factor_half_eps": final_half, "final_ratio": final_ratio,
            "stable": bool(abs(ratio - 1.0) <= cli.STABLE_TOLERANCE
                           and abs(final_ratio - 1.0) <= cli.STABLE_TOLERANCE),
            "clean_until": clean_end}


def reference_cdep(config, eps):
    """Continuous dependence the long way: three full-length runs, one
    after the other, whose fields are all kept and compared over the base
    run's clean prefix."""
    geom = config.geometry
    base0, bump = cdep_fields(config)

    def fields_of(u0):
        samples, kept = zip(*evolve(u0, config.solver))
        return TimeSeries(geom, list(samples)), kept

    base, base_fields = fields_of(base0)
    clean_end = base.clean_end()
    out = {"clean_until": clean_end}
    for key, e in (("eps", eps), ("half_eps", eps / 2.0)):
        _, pert_fields = fields_of(base0 + e * bump)
        norms = [weighted_inner(fp - fb, fp - fb)
                 for fp, fb, s in zip(pert_fields, base_fields, base.samples)
                 if s.t <= clean_end]
        out[f"growth_factor_{key}"] = max(norms) / norms[0]
        out[f"final_factor_{key}"] = norms[-1] / norms[0]
    return out


class TestCdepSchedule:
    """cdep steps the base one sample ahead: after its first interval
    alone, the two perturbed runs step to its sample k while it steps to
    k + 1, the three as one stack.  Each run steps the steps it would
    step alone, and the report is that of the runs advanced in turn."""

    @staticmethod
    def quarter_ref(solver=(), initial=()):
        # paper-ref on a quarter of the domain, the grid spacing kept:
        # sampled every 0.1, contaminated at t = 0.3
        doc = json.loads(json.dumps(paper_ref_config().raw))
        doc["geometry"].update(Lx=7.5, Nx=256)
        doc["solver"].update({"t_end": 0.4, **dict(solver)})
        doc["initial"].update(initial)
        return parse_config(json.dumps(doc))

    @staticmethod
    def small(t_end):
        doc = base_doc(**TestCdepCommand.SMALL)
        doc["solver"]["t_end"] = t_end
        return parse_config(json.dumps(doc))

    @staticmethod
    def stepper(config):
        cfg = config.solver
        return _stepper(config.geometry, cfg.dt, cfg.convection, cfg.nonlinear)

    def test_base_steps_one_sample_ahead(self, monkeypatch):
        config = self.quarter_ref()
        st = self.stepper(config)
        rows = step_rows(monkeypatch, st)
        got = cdep_experiment(config, 1e-3)
        assert got["clean_until"] == 0.2
        # 700 steps of a state: the perturbed runs stop at t = 0.2, the
        # base at its contaminated sample t = 0.3
        assert rows == [(1, st.band.n_odd)] * 100 + [(3, st.band.n_odd)] * 200

    def test_even_mode_base_steps_full_band_stacks(self, monkeypatch):
        config = self.quarter_ref(initial={"j": 2})
        st = self.stepper(config)
        want = in_turn_cdep(config, 1e-3)
        rows = step_rows(monkeypatch, st)
        assert cdep_experiment(config, 1e-3) == want
        assert rows == [(1, st.band.nj)] * 100 + [(3, st.band.nj)] * 200

    @pytest.mark.parametrize("grid,t_end", [
        ("quarter", 0.0), ("quarter", 0.001), ("quarter", 0.25),
        ("quarter", 0.35), ("small", 0.5), ("small", 0.1), ("small", 0.105)])
    def test_report_matches_runs_in_turn(self, grid, t_end):
        # sampled every 150 steps from t = 0 to 0.35, as before the clean
        # end at 0.15 and past it; on the small grid, past the clean end,
        # clean and clean with an uneven last interval, which the base
        # reaches while the perturbed runs step on
        config = (self.quarter_ref(solver={"t_end": t_end, "output_every": 150})
                  if grid == "quarter" else self.small(t_end))
        assert cdep_experiment(config, 1e-3) == in_turn_cdep(config, 1e-3)

    def test_perturbed_blow_up_matches_runs_in_turn(self):
        # at eps = 45 the eps run blows up at t = 0.3, in its second
        # interval, while the base steps its third one, clean
        doc = {**BLOW_UP_DOC, "geometry": CDEP_BLOW_UP_GEOMETRY,
               "solver": {"dt": 0.1, "t_end": 3.0, "output_every": 2},
               "initial": {"kind": "gaussian_mode", "amplitude": 0.2, "s": 2.0}}
        config = parse_config(json.dumps(doc))
        with pytest.raises(BlowUpError) as want:
            in_turn_cdep(config, 45.0)
        with pytest.raises(BlowUpError) as got:
            cdep_experiment(config, 45.0)
        assert got.value.t == want.value.t == pytest.approx(0.3)
        assert got.value.last_l2 == want.value.last_l2
        assert got.value.series.samples == want.value.series.samples
        base_l2 = make_initial_field(config.initial, config.geometry).l2_norm ** 2
        assert got.value.series.samples[0].l2 > 100 * base_l2


class TestCachedState:
    """What runs leave in the cached band and stepper of their geometry:
    the band holds read-only tables alone, and the stepper one workspace,
    that of the last stack it stepped."""

    def test_band_holds_read_only_tables(self):
        # a run, a cdep call, and one stack of each corpus verifier
        config = TestCdepSchedule.quarter_ref()
        g = config.geometry
        run(make_initial_field(config.initial, g).field, config.solver)
        cdep_experiment(config, 1e-3)
        stack = random_blocks(g, range(8))
        steklov_sides(g, stack)
        gn_sides(g, stack)
        sup_sides(g, stack, ((0.1, 1.0), (1.0, 1.0)))
        for name, value in vars(_band(g)).items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
            else:
                assert isinstance(value, (int, float, StripGeometry)), name

    def test_stepper_holds_one_workspace(self, monkeypatch):
        # cdep's base steps (1, n) stacks, then the three runs (3, n) ones
        config = TestCdepSchedule.quarter_ref()
        st = TestCdepSchedule.stepper(config)
        rows = step_rows(monkeypatch, st)
        cdep_experiment(config, 1e-3)
        shape, buffers = st._work
        assert shape == rows[-1] == (3, st.band.n_odd)
        assert all(len(b) == 3 for b in buffers)
        assert not any(isinstance(v, (dict, list)) for v in vars(st).values())


class TestCdepCommand:
    # on a 64 x 16 grid with Lx = 6 the base run is contaminated at
    # t = 0.14, so t_end = 0.5 runs past its clean end and 0.1 stays clean
    SMALL = {"geometry": {"Lx": 6.0, "Nx": 64}, "solver": {"output_every": 10}}

    @pytest.mark.parametrize("t_end, contaminated", [(0.5, True), (0.1, False)])
    def test_early_stop_matches_full_runs(self, monkeypatch, t_end,
                                          contaminated):
        doc = base_doc(**self.SMALL)
        doc["solver"]["t_end"] = t_end
        config = parse_config(json.dumps(doc))
        want = reference_cdep(config, 1e-3)

        runs = []

        def spy(u0, cfg):
            # the runs interleave: each keeps its own samples
            runs.append(Trajectory(u0, cfg))
            return runs[-1]

        monkeypatch.setattr(cli, "Trajectory", spy)
        got = cdep_experiment(config, 1e-3)

        assert got["clean_until"] == want["clean_until"]
        for key in ("growth_factor_eps", "growth_factor_half_eps",
                    "final_factor_eps", "final_factor_half_eps"):
            assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0)
        assert got["final_ratio"] == pytest.approx(
            want["final_factor_eps"] / want["final_factor_half_eps"], rel=1e-13)

        base, *perturbed = (TimeSeries(config.geometry, r.samples)
                            for r in runs)
        assert len(perturbed) == 2
        assert (base.status == "contaminated") == contaminated
        if contaminated:
            # the base stops at its first contaminated sample
            assert base.samples[-1].t > got["clean_until"]
            assert base.samples[-2].t == got["clean_until"]
            assert got["clean_until"] < t_end
        for series in perturbed:
            assert series.samples[-1].t == got["clean_until"]
            assert len(series.samples) == len(base.samples) - contaminated

    def test_growth_factors_stable(self, tmp_path, capsys):
        doc = base_doc(solver={"t_end": 1.0, "output_every": 50})
        cfg_path = write_config(tmp_path, doc)
        code = main(["cdep", "--config", cfg_path, "--eps", "1e-3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["stable"] is True
        assert abs(payload["ratio"] - 1.0) <= 0.10
        assert payload["growth_factor_eps"] > 0

    def test_final_ratio_decides_stable(self, tmp_path, capsys):
        # both maxima sit at t = 0, so ratio reads 1.0 at any eps; at
        # eps = 10 the final factors differ by 13% (clean until t = 0.58)
        cfg_path = write_config(tmp_path, base_doc())
        for eps, code in (("10", 1), ("1e-3", 0)):
            assert main(["cdep", "--config", cfg_path, "--eps", eps]) == code
            payload = json.loads(capsys.readouterr().out)
            assert payload["ratio"] == 1.0
            assert payload["stable"] is (code == 0)
            assert (abs(payload["final_ratio"] - 1.0) <= 0.10) is (code == 0)

    def test_zero_eps_degenerate(self, tmp_path, capsys):
        assert main(["cdep", "--config", "paper-ref", "--eps", "0"]) == 0
        assert "identical" in capsys.readouterr().out
        out = tmp_path / "cdep"
        assert main(["cdep", "--config", "paper-ref", "--eps", "0",
                     "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"eps": 0.0, "note": "identical runs"}
        assert json.loads((out / "cdep.json").read_text()) == printed

    def test_zero_eps_still_loads_config(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        assert main(["cdep", "--config", missing, "--eps", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "identical" not in captured.out

    def test_negative_eps(self, tmp_path, capsys):
        doc = base_doc(solver={"t_end": 0.5})
        cfg_path = write_config(tmp_path, doc)
        assert main(["cdep", "--config", cfg_path, "--eps", "-1"]) == 1

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps(self, tmp_path, capsys, eps):
        cfg_path = write_config(tmp_path, base_doc(solver={"t_end": 0.5}))
        assert main(["cdep", "--config", cfg_path, f"--eps={eps}"]) == 1
        assert capsys.readouterr().err == "error: eps must be finite and > 0\n"

    def test_blow_up_exits_3(self, tmp_path, capsys):
        # dt * max|Im sigma| = 46.6 on 56 x points, under the guard's 50;
        # the runs blow up at t = 0.25, their first step
        doc = {**BLOW_UP_DOC, "geometry": CDEP_BLOW_UP_GEOMETRY,
               "solver": {"dt": 0.25, "t_end": 30.0},
               "initial": {"kind": "gaussian_mode", "amplitude": 100.0, "s": 2.0}}
        out = tmp_path / "cdep"
        code = main(["cdep", "--config", write_config(tmp_path, doc),
                     "--eps", "1e-3", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"blow-up at t = \S+ during continuous-dependence runs\n", err)
        assert not (out / "cdep.json").exists()

    def test_bump_too_wide_exits_1(self, tmp_path, capsys):
        # the unit bump is too narrow for 32 x points: the x slots that no
        # run steps hold 9.3e-4 of its squared norm
        config = parse_config(json.dumps(BLOW_UP_DOC))
        with pytest.raises(ValueError, match="outside the 2/3 band n < 11"):
            cdep_experiment(config, 1e-3)
        out = tmp_path / "cdep"
        code = main(["cdep", "--config", write_config(tmp_path, BLOW_UP_DOC),
                     "--eps", "1e-3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: initial data outside the 2/3 band")
        assert not (out / "cdep.json").exists()

    def test_base_contaminated_at_start(self, tmp_path, capsys):
        # periodic single-mode data fills the tail bands from t = 0
        doc = base_doc(**self.SMALL)
        doc["solver"]["t_end"] = 0.1
        doc["initial"] = {"kind": "single_mode", "amplitude": 0.15,
                          "k": math.pi / 6.0, "j": 1}
        config = parse_config(json.dumps(doc))
        with pytest.raises(ValueError, match="contaminated from the first"):
            cdep_experiment(config, 1e-3)
        cfg_path = write_config(tmp_path, doc)
        assert main(["cdep", "--config", cfg_path, "--eps", "1e-3"]) == 1
        assert capsys.readouterr().err.startswith("error:")
