import json
import os
import stat
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twcalc as tw
from twcalc import formats
from twcalc.cli import main


def run(args):
    return main([str(a) for a in args])


def test_gen_writes_valid_positive_matrix(tmp_path):
    out = tmp_path / "C.json"
    assert run(["gen", "--n-max", 12, "--rank", 2, "--seed", 7, "--out", out]) == 0
    C = tw.wong_from_json(out.read_text())
    assert C.n_max == 12
    assert tw.is_positive_twisted(C).is_positive
    obj = json.loads(out.read_text())
    assert obj["version"] == tw.__version__
    assert obj["config"]["seed"] == 7


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["gen", "--n-max", 10, "--seed", 3, "--out", path]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_round_trips_through_synthesis(tmp_path):
    out = tmp_path / "C.json"
    run(["gen", "--n-max", 6, "--rank", 1, "--seed", 1, "--planted-r", 1.0, "--out", out])
    C = tw.wong_from_json(out.read_text())
    back = tw.expand(tw.synthesize(C, 8.0, 128), 6)
    assert np.max(np.abs(back.entries - C.entries)) < 1e-8


def test_gen_vectors_regenerate_the_gram(tmp_path):
    out, vout = tmp_path / "C.json", tmp_path / "V.json"
    run(["gen", "--n-max", 8, "--rank", 2, "--seed", 9, "--planted-r", 0.7,
         "--out", out, "--vectors-out", vout])
    C = tw.wong_from_json(out.read_text())
    obj = json.loads(vout.read_text())
    vecs = [tw.coeff_vector_from_json(json.dumps(v)).coeffs for v in obj["vectors"]]
    gram = sum(np.outer(v, v.conj()) for v in vecs)
    np.testing.assert_allclose(gram, C.entries, atol=1e-14)


def test_compose_applies_delta_rule(tmp_path):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    a.write_text(tw.wong_to_json(tw.unit_entry(1, 4, ((0,), (1,)))))
    b.write_text(tw.wong_to_json(tw.unit_entry(1, 4, ((1,), (3,)))))
    assert run(["compose", "--in", a, "--in", b, "--out", out]) == 0
    C = tw.wong_from_json(out.read_text())
    np.testing.assert_allclose(C.entries, tw.unit_entry(1, 4, ((0,), (3,))).entries)


def test_compose_identity(tmp_path):
    a, e, out = tmp_path / "a.json", tmp_path / "e.json", tmp_path / "out.json"
    rng = np.random.default_rng(0)
    C = tw.WongCoeffMatrix(1, 3, rng.normal(size=(4, 4)) + 0j)
    a.write_text(tw.wong_to_json(C))
    e.write_text(tw.wong_to_json(tw.WongCoeffMatrix(1, 3, np.eye(4, dtype=complex))))
    assert run(["compose", "--in", a, "--in", e, "--out", out]) == 0
    np.testing.assert_allclose(tw.wong_from_json(out.read_text()).entries, C.entries)


def test_compose_shape_mismatch_exits_2(tmp_path):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ab.json"
    a.write_text(tw.wong_to_json(tw.unit_entry(1, 4, ((0,), (0,)))))
    b.write_text(tw.wong_to_json(tw.unit_entry(1, 5, ((0,), (0,)))))
    assert run(["compose", "--in", a, "--in", b, "--out", out]) == 2


def test_verify_default_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--planted-s", 0.5, "--rank", 3, "--seed", 7,
                "--N-max", 40, "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] and report["version"] == tw.__version__
    growth = tmp_path / "report_growth.csv"
    lines = growth.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "N,log_g_N"
    assert len(lines) == 2 + 41


def test_verify_tampered_matrix_exits_1(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    C, _ = tw.random_positive_element(2, 0.5, 1.0, seed=2, n_max=8)
    good.write_text(tw.wong_to_json(C))
    bad.write_text(tw.wong_to_json(tw.WongCoeffMatrix(1, 8, -C.entries)))
    out, growth = tmp_path / "report.json", tmp_path / "report_growth.csv"
    assert run(["verify", "--in", good, "--out", out]) in (0, 1)
    assert len(growth.read_text().splitlines()) == 2 + 41
    assert run(["verify", "--in", bad, "--out", out]) == 1
    report = json.loads(out.read_text())
    assert not report["pass"] and report["witness"] is not None
    # the earlier run's growth values, under the same config header, are not left beside the new report
    lines = growth.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("# {") and lines[1] == "N,log_g_N"


def test_verify_missing_file_exits_2(tmp_path):
    assert run(["verify", "--in", tmp_path / "nope.json", "--out", tmp_path / "r.json"]) == 2


@pytest.mark.parametrize("text", [
    '{"d": 1, "n_max": 4, "entries": [[5, 0, 1.0, 0.0]]}',     # index above n_max
    '{"n_max": 4, "entries": []}',                              # no "d"
    '{"d": 1, "n_max": 4, "entries": [[0, 0, 1.0]]}',           # row too short
    '{"d": 1, "n_max": 4, "entries": [[0, 0, "x", 0.0]]}',      # value not a number
    '[1, 2]',                                                   # not an object
    '{"d": true, "n_max": 2, "entries": [[1.7, 0.2, 1.0, 0.0]]}',  # bool d, fractional indices
    '{"d": 1, "n_max": 2, "entries": [[true, 0, 1.0, 0.0]]}',   # bool index among numbers
], ids=["index-above-n-max", "missing-d", "short-row", "non-number", "not-an-object",
        "bool-d-fractional-index", "bool-index"])
def test_verify_malformed_input_exits_2(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(["verify", "--in", bad, "--out", tmp_path / "r.json"]) == 2


@pytest.mark.parametrize("command", ["verify", "compose"])
def test_unallocatable_size_exits_2(tmp_path, capsys, command):
    # 40 bytes that ask for a (5001^2)^2 complex matrix, 8.89 PiB
    big = tmp_path / "big.json"
    big.write_text('{"d": 2, "n_max": 5000, "entries": []}')
    inputs = ["--in", big] if command == "verify" else ["--in", big, "--in", big]
    assert run([command, *inputs, "--out", tmp_path / "out.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("twcalc: out of memory") and err.count("\n") == 1


def test_verify_input_past_the_norm_bound_exits_2(tmp_path):
    # parts of 4e153 once crashed LAPACK's eigensolver with a corrupted heap
    path = tmp_path / "huge.json"
    path.write_text('{"d": 1, "n_max": 2, "entries": [[0, 2, 1.0, 4e153], [2, 1, -3e153, -6e153]]}')
    assert run(["verify", "--in", path, "--out", tmp_path / "r.json"]) == 2


# JSON values of every type, integers in the index range most often
_SCALAR = st.one_of(st.integers(-1, 6), st.floats(), st.booleans(), st.none(), st.text(max_size=2))
_DEFECTS = ["none", "value-of-a-key", "missing-key", "row", "row-item", "truncated"]


@st.composite
def malformed_coeff_files(draw):
    """Small coefficient files (n_max <= 6), any float parts, and at most one defect."""
    d, n_max = draw(st.sampled_from([1, 2])), draw(st.integers(0, 6))
    row = st.tuples(*[st.integers(0, n_max)] * (2 * d), st.floats(), st.floats()).map(list)
    rows = draw(st.lists(row, max_size=8))
    obj = {"d": d, "n_max": n_max, "entries": rows}
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "value-of-a-key":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(_SCALAR)
    elif defect == "missing-key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif defect == "row" and rows:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(_SCALAR, max_size=7))
    elif defect == "row-item" and rows:
        bad = rows[draw(st.integers(0, len(rows) - 1))]
        bad[draw(st.integers(0, len(bad) - 1))] = draw(_SCALAR)
    text = json.dumps(obj)
    return text[:draw(st.integers(0, len(text) - 1))] if defect == "truncated" else text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=malformed_coeff_files())
def test_fuzzed_coefficient_files_exit_0_1_or_2(text):
    # an exception out of main is a traceback; every outcome must be an exit code.
    # Parts near the float limits overflow on purpose, so their warnings are muted.
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        path, out = Path(tmp) / "C.json", Path(tmp) / "out.json"
        path.write_text(text)
        assert run(["verify", "--in", path, "--out", out]) in (0, 1, 2)
        assert run(["compose", "--in", path, "--in", path, "--out", out]) in (0, 2)


@pytest.mark.parametrize("argv", [
    ["verify", "--in", ".", "--out", "r.json"],
    ["gen", "--n-max", 4, "--out", "."],
], ids=["in-is-a-directory", "out-is-a-directory"])
def test_directory_path_exits_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2


@pytest.mark.parametrize("argv, present", [
    (["gen", "--n-max", 4, "--out", "C.json", "--vectors-out", "nodir/V.json"], []),
    (["gen", "--n-max", 4, "--out", "nodir/C.json", "--vectors-out", "V.json"], []),
    (["verify", "--n-max", 4, "--N-max", 8, "--out", "r.json"], ["r_growth.csv/"]),
    (["gen", "--n-max", 4, "--out", "keep.json", "--vectors-out", "nodir/V.json"], ["keep.json"]),
], ids=["gen-vectors-out", "gen-out", "verify-growth-csv", "gen-existing-out"])
def test_failed_write_leaves_no_new_file(tmp_path, monkeypatch, argv, present):
    # every output text is built before any file is opened, every file is opened before
    # any is truncated, and a failed open or write removes the files the command created;
    # a file that was there stays as it was
    monkeypatch.chdir(tmp_path)
    for name in present:
        (tmp_path / name).mkdir() if name.endswith("/") else (tmp_path / name).write_text("{}")
    assert run(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(name.rstrip("/") for name in present)
    for name in present:
        assert name.endswith("/") or (tmp_path / name).read_text() == "{}"


@pytest.mark.parametrize("failure", ["full-disk", "read-only"])
def test_failed_write_keeps_the_file_it_would_replace(tmp_path, monkeypatch, full_disk, failure):
    # a write that fails after the text began to stream never truncates the old file, and a
    # file open(path, "w") would refuse is refused, not replaced (root passes os.access, so it is faked)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "keep.json").write_text("{}\n")
    if failure == "full-disk":
        full_disk()
    else:
        monkeypatch.setattr(os, "access", lambda path, how: False)
    assert run(["gen", "--n-max", 4, "--out", "keep.json"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]
    assert (tmp_path / "keep.json").read_text() == "{}\n"


def test_replaced_output_keeps_its_mode_and_symlink(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--n-max", 4, "--out", "C.json"]) == 0
    (tmp_path / "fresh.json").write_text("")
    # a new output gets the mode open() gives
    assert (tmp_path / "C.json").stat().st_mode == (tmp_path / "fresh.json").stat().st_mode
    (tmp_path / "old.json").write_text("{}")
    (tmp_path / "old.json").chmod(0o640)
    (tmp_path / "link.json").symlink_to("old.json")
    assert run(["gen", "--n-max", 4, "--out", "link.json"]) == 0
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "old.json").read_bytes() == (tmp_path / "C.json").read_bytes()
    assert stat.S_IMODE((tmp_path / "old.json").stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["C.json", "fresh.json", "link.json", "old.json"]


def _in_thread(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


def test_fifo_is_written_and_read_in_place(tmp_path, monkeypatch, capsys):
    # a FIFO cannot be replaced or read twice: --out writes it in place, --in reads it whole,
    # and both give what a regular file gives, malformed text included
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    assert run(["gen", "--d", 2, "--n-max", 4, "--out", "C.json"]) == 0
    got = []
    reader = _in_thread(lambda: got.append(Path("fifo").read_text()))
    assert run(["gen", "--d", 2, "--n-max", 4, "--out", "fifo"]) == 0
    reader.join(10)
    assert got == [Path("C.json").read_text()]
    assert stat.S_ISFIFO(os.stat("fifo").st_mode)
    Path("bad.json").write_text('{"d": 1, "n_max": 4, "entries": [[0, 0, "x", 0.0]]}')
    for name in ("C.json", "bad.json"):
        code = run(["verify", "--in", name, "--out", "r.json"])
        expected = capsys.readouterr(), Path("r.json").read_bytes() if code < 2 else None
        writer = _in_thread(lambda: Path("fifo").write_text(Path(name).read_text()))
        assert run(["verify", "--in", "fifo", "--out", "r.json"]) == code
        writer.join(10)
        assert (capsys.readouterr(), Path("r.json").read_bytes() if code < 2 else None) == expected


def test_verify_refuses_an_out_that_is_not_a_regular_file(tmp_path, monkeypatch, capsys):
    # the growth CSV goes to <out>_growth.csv, which a FIFO or /dev/stdout has no place for;
    # verify only stats the FIFO, and opening it would fail the test rather than wait for a reader
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")

    def guarded_open(path, *args, **kwargs):
        assert os.path.basename(path) != "fifo", "verify opened its FIFO --out"
        return open(path, *args, **kwargs)

    monkeypatch.setattr(formats, "open", guarded_open, raising=False)
    assert run(["verify", "--n-max", 4, "--N-max", 8, "--out", "fifo"]) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert os.listdir() == ["fifo"]


def test_verify_input_records_the_matrix_config(tmp_path):
    src, out = tmp_path / "C.json", tmp_path / "report.json"
    assert run(["gen", "--d", 2, "--n-max", 4, "--out", src]) == 0
    assert run(["verify", "--in", src, "--N-max", 12, "--out", out]) in (0, 1)
    config = json.loads(out.read_text())["config"]
    assert config == {"d": 2, "n_max": 4, "N_max": 12, "seed": 0, "tol": 0.15}


def test_tables_emit_documented_columns(tmp_path):
    out_dir = tmp_path / "tables"
    code = run(["tables", "--n-max", 16, "--N-max", 12, "--seed", 1,
                "--grid-n", 128, "--out-dir", out_dir])
    assert code == 0
    expected = {
        "hermite_orthonormality.csv": "i,j,deviation",
        "twisted_product_gaps.csv": "alpha2,beta1,l2_gap",
        "oscillator_eigen_residuals.csv": "alpha1,alpha2,rel_error",
        "growth_sequence.csv": "N,log_g_N",
        "growth_fit.csv": "planted_s,fitted_s_growth,fitted_s_decay,growth_residual,decay_residual,pass",
    }
    for name, header in expected.items():
        lines = (out_dir / name).read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == header
        assert len(lines) > 2


@pytest.mark.parametrize("argv, outputs", [
    (["tables", "--n-max", 12, "--N-max", 8, "--seed", 5, "--grid-n", 128, "--out-dir", "."],
     ["hermite_orthonormality.csv", "growth_sequence.csv", "growth_fit.csv"]),
    (["verify", "--d", 2, "--n-max", 8, "--N-max", 12, "--seed", 5, "--out", "r.json"],
     ["r.json", "r_growth.csv"]),
    (["verify", "--in", "../C.json", "--N-max", 12, "--out", "r.json"], ["r.json", "r_growth.csv"]),
], ids=["tables", "verify", "verify-in"])
def test_tables_rerun_is_byte_identical(tmp_path, monkeypatch, argv, outputs):
    # the growth-fit outputs: the tables' fit CSVs and verify's report and growth CSV
    assert run(["gen", "--d", 2, "--n-max", 6, "--seed", 5, "--out", tmp_path / "C.json"]) == 0
    codes = []
    for name in ("run1", "run2"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        codes.append(run(argv))
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    for name in outputs:
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_verify_reads_planted_r_as_gen_does(tmp_path):
    element, flags = ["--n-max", 12, "--planted-r", 0.7], ["--N-max", 12, "--seed", 9]
    src = tmp_path / "C.json"
    assert run(["gen", *element, *flags, "--out", src]) == 0
    rows = {}
    for name, argv in (("in", ["--in", src]), ("planted", element)):
        out = tmp_path / f"{name}.json"
        assert run(["verify", *flags, *argv, "--out", out]) in (0, 1)
        rows[name] = (tmp_path / f"{name}_growth.csv").read_text().splitlines()[1:]
    assert rows["in"] == rows["planted"]
    assert json.loads((tmp_path / "planted.json").read_text())["config"]["planted_r"] == 0.7


@pytest.mark.parametrize("flag, value", [
    ("--d", 1), ("--d", 2), ("--n-max", 48), ("--n-max", 4), ("--planted-s", 0.5), ("--planted-s", 0.3),
    ("--planted-r", 5), ("--rank", 3), ("--rank", 9),
])
def test_verify_input_refuses_the_element_flags(tmp_path, monkeypatch, capsys, flag, value):
    # these describe a planted element; the default values count as given too
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--n-max", 4, "--out", "C.json"]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", "C.json", flag, value, "--out", "r.json"]) == 2
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["C.json"]


def test_verify_input_takes_n_max_seed_and_tol(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--n-max", 4, "--out", "C.json"]) == 0
    assert run(["verify", "--in", "C.json", "--N-max", 8, "--seed", 3, "--tol", 0.2,
                "--out", "r.json"]) in (0, 1)
    assert json.loads((tmp_path / "r.json").read_text())["config"]["tol"] == 0.2


@pytest.mark.parametrize("argv", [
    ["gen", "--n-max", -1, "--out", "C.json"],
    ["gen", "--n-max", -1, "--planted-r", 1, "--out", "C.json"],
    ["gen", "--n-max", 4, "--planted-s", "inf", "--out", "C.json"],
    ["gen", "--n-max", 4, "--planted-r", -1, "--out", "C.json"],
    ["verify", "--n-max", 4, "--planted-s", 0, "--out", "r.json"],
    ["verify", "--n-max", 0, "--out", "r.json"],
    ["verify", "--n-max", 4, "--tol", "nan", "--out", "r.json"],
    ["verify", "--in", "psd.json", "--N-max", -3, "--out", "r.json"],
    ["verify", "--in", "not_psd.json", "--N-max", -3, "--out", "r.json"],
    ["tables", "--n-max", 4, "--N-max", 8, "--grid-L", 0, "--out-dir", "t"],
    ["tables", "--n-max", 4, "--N-max", 8, "--grid-n", 8, "--out-dir", "t"],
    ["tables", "--n-max", 4, "--N-max", 8, "--rank", 0, "--out-dir", "t"],
    ["tables", "--n-max", 4, "--N-max", 3, "--out-dir", "t"],
], ids=["gen-negative-n-max", "gen-negative-n-max-given-r", "gen-infinite-s", "gen-negative-r", "verify-zero-s",
        "verify-zero-n-max", "verify-nan-tol", "verify-psd-input-few-powers", "verify-not-psd-input-few-powers",
        "tables-zero-box", "tables-coarse-grid", "tables-zero-rank", "tables-few-powers"])
def test_out_of_range_values_exit_2(tmp_path, monkeypatch, argv):
    # the exit code must not depend on the data: a bad --N-max fails before the PSD test
    monkeypatch.chdir(tmp_path)
    C, _ = tw.random_positive_element(2, 0.5, 1.0, seed=2, n_max=4)
    (tmp_path / "psd.json").write_text(tw.wong_to_json(C))
    (tmp_path / "not_psd.json").write_text(tw.wong_to_json(tw.WongCoeffMatrix(1, 4, -C.entries)))
    assert run(argv) == 2
    assert not (tmp_path / "C.json").exists() and not (tmp_path / "r.json").exists()
    assert not (tmp_path / "t").exists()        # tables writes all of its files or none


@pytest.mark.parametrize("argv", [
    ["gen", "--grid-n", 129, "--out", "C.json"],
    ["gen", "--tol", 0.1, "--out", "C.json"],
    ["gen", "--permissive", "--out", "C.json"],
    ["verify", "--grid-L", 8.0, "--out", "r.json"],
    ["verify", "--strict", "--out", "r.json"],
    ["verify", "--mode", "sup", "--out", "r.json"],
    ["tables", "--tol", 0.1, "--out-dir", "t"],
    ["tables", "--mode", "origin", "--out-dir", "t"],
], ids=["gen-grid-n", "gen-tol", "gen-permissive", "verify-grid-L", "verify-strict", "verify-mode",
        "tables-tol", "tables-mode"])
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
