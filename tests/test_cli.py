import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim import cli
from depolsim.cli import MAX_POINTS, _parse_theta_range, fibonacci_sphere, main
from depolsim.channels import ISOTROPIC_POINT_DEG, SCHEME_NAMES, StokesChannel, build_scheme, extract_channel
from depolsim.temporal import SchemeConfig


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_sweep_row_count_and_intersection(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:90:1",
         "--inputs", "h", "p", "r", "--out", str(out)],
        capsys,
    )
    assert code == 0 and err == ""
    header, rows = read_rows(out)
    assert header == ["theta_deg", "input", "s1", "s2", "s3", "dop"]
    assert len(rows) == 273  # 91 angles x 3 inputs
    near = [r for r in rows if r[0] == "55"]
    assert len(near) == 3
    for r in near:
        assert abs(float(r[5]) - 1 / 3) < 2e-2  # grid point nearest the isotropic angle


def test_sweep_triad_inputs_coincide(tmp_path, capsys):
    out = tmp_path / "triad.csv"
    s1 = -1 / np.sqrt(3)
    code, _, _ = run_cli(
        ["sweep", "--scheme", "scheme2", "--theta-range", "0:90:5",
         "--inputs", f"triad:{s1}", "--out", str(out)],
        capsys,
    )
    assert code == 0
    _, rows = read_rows(out)
    assert {r[1] for r in rows} == {"triad0", "triad1", "triad2"}
    by_theta = {}
    for r in rows:
        by_theta.setdefault(r[0], []).append(float(r[5]))
    for dops in by_theta.values():
        assert max(dops) - min(dops) < 1e-9


def test_sweep_scheme3_triad_depolarizes_fully_at_45(tmp_path, capsys):
    out = tmp_path / "s3.csv"
    code, _, _ = run_cli(
        ["sweep", "--scheme", "scheme3", "--theta-range", "45:45:1",
         "--inputs", f"triad:{-1 / np.sqrt(3)}", "--out", str(out)],
        capsys,
    )
    assert code == 0
    _, rows = read_rows(out)
    assert all(float(r[5]) < 1e-9 for r in rows)


def test_map_lyot_collapses_to_origin(capsys):
    code, out, _ = run_cli(["map", "--scheme", "lyot", "--samples", "20"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n_samples"] == 20
    assert np.abs(np.array(report["points"])).max() < 1e-12
    assert np.abs(np.array(report["channel"]["m"])).max() < 1e-12


def test_map_isotropic_point_radius(tmp_path, capsys):
    out = tmp_path / "map.json"
    code, _, _ = run_cli(
        ["map", "--scheme", "scheme1", "--theta", f"{ISOTROPIC_POINT_DEG:.4f}",
         "--samples", "64", "--out", str(out)],
        capsys,
    )
    assert code == 0
    points = np.array(json.loads(out.read_text())["points"])
    radii = np.linalg.norm(points, axis=1)
    assert np.abs(radii - 1 / 3).max() < 1e-4


def test_map_rejects_tiny_sample_count(capsys):
    code, _, err = run_cli(["map", "--scheme", "lyot", "--samples", "2"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


def test_tomo_exact_noiseless(capsys):
    code, out, _ = run_cli(
        ["tomo", "--scheme", "scheme1", "--theta", "45", "--shots", "1000000", "--exact"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["process_fidelity"] > 1 - 1e-6
    assert set(report["dop"]) == {"h", "v", "p", "r"}
    assert report["chi"]["basis"] == ["I", "X", "Y", "Z"]


def test_tomo_scheme3_at_45_is_uniform_mixture(capsys):
    code, out, _ = run_cli(
        ["tomo", "--scheme", "scheme3", "--theta", "45", "--shots", "1000000", "--exact"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    chi_re = np.array(report["chi"]["re"])
    chi_im = np.array(report["chi"]["im"])
    assert np.abs(chi_re - np.eye(4) / 4).max() < 1e-6
    assert np.abs(chi_im).max() < 1e-6


def test_tomo_noisy_fidelity(capsys):
    code, out, _ = run_cli(
        ["tomo", "--scheme", "scheme1", "--theta", f"{ISOTROPIC_POINT_DEG:.4f}",
         "--shots", "100000", "--seed", "11"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["process_fidelity"] > 0.97


@pytest.mark.filterwarnings("error")
def test_tomo_leaves_stderr_empty_when_chi_is_clipped(capsys):
    # three shots per setting give inconsistent estimates; the report carries the clipped mass
    code, out, err = run_cli(["tomo", "--scheme", "lyot", "--shots", "3", "--seed", "1"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["chi"]["clipped_mass"] > 0.1


def test_tomo_writes_a_clipped_mass_of_nothing_as_0(capsys):
    # with no negative chi eigenvalue the clipped mass is the negated empty sum, written as 0.0, not -0.0
    code, out, _ = run_cli(["tomo", "--scheme", "lyot", "--exact"], capsys)
    assert code == 0
    assert out.count('"clipped_mass": 0.0,') == 2
    assert math.copysign(1.0, json.loads(out)["chi"]["clipped_mass"]) == 1.0


@pytest.mark.filterwarnings("error")
def test_tomo_rejects_shots_beyond_the_int64_count_range(capsys):
    for exact in (["--exact"], []):
        code, out, err = run_cli(
            ["tomo", "--scheme", "scheme1", "--theta", "10", "--shots", str(10**20), *exact], capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "int64" in json.loads(err)["error"]


@pytest.mark.filterwarnings("error")
def test_tomo_rejects_shots_beyond_the_float_range(capsys):
    # a 400-digit shot count used to end in sample_counts' OverflowError and a traceback
    for exact in (["--exact"], []):
        code, out, err = run_cli(
            ["tomo", "--scheme", "scheme1", "--theta", "10", "--shots", "1" + "0" * 400, *exact], capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "gives mean counts beyond the int64 range" in json.loads(err)["error"]


def test_tomo_rejects_a_negative_seed_naming_it(capsys):
    for exact in (["--exact"], []):
        code, out, err = run_cli(["tomo", "--scheme", "scheme1", "--theta", "10", "--seed", "-1", *exact], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == "seed must be an integer >= 0, got -1"


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        args = ["sweep", "--scheme", "scheme2", "--theta-range", "0:30:2.5", "--out", str(path)]
        assert run_cli(args, capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        args = ["tomo", "--scheme", "scheme2", "--theta", "30", "--shots", "5000",
                "--seed", "3", "--out", str(path)]
        assert run_cli(args, capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, _, _ = run_cli(["compare", "--theta-range", "0:90:1", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["theta_deg", "s1_sq", "dop_engine", "dop_analytic", "abs_diff"]
    assert all(float(r[4]) < 1e-9 for r in rows)
    zero_rows = [r for r in rows if r[0] == "0"]
    assert all(abs(float(r[2]) - 1.0) < 1e-12 for r in zero_rows)
    third = [r for r in rows if r[0] == "45" and abs(float(r[1]) - 1 / 3) < 1e-9]
    assert len(third) == 1
    assert abs(float(third[0][2]) - 1 / np.sqrt(6)) < 1e-9


def test_scheme_config_file_path(tmp_path, capsys):
    config = {
        "coherence": 0.0,
        "elements": [
            {"kind": "crystal", "angle_deg": 0.0, "delay_bins": 1},
            {"kind": "crystal", "angle_deg": 45.0, "delay_bins": 2},
        ],
    }
    cfg_path = tmp_path / "lyot.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(["map", "--scheme", str(cfg_path), "--samples", "10"], capsys)
    assert code == 0
    assert np.abs(np.array(json.loads(out)["points"])).max() < 1e-12
    # sweeping needs an angle knob, which a fixed element list does not have
    code, _, err = run_cli(
        ["sweep", "--scheme", str(cfg_path), "--theta-range", "0:10:1"], capsys
    )
    assert code == 2 and "error" in json.loads(err)


def test_error_paths_emit_json(capsys):
    for args in (
        ["sweep", "--scheme", "bogus", "--theta-range", "0:1:1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "10:0:1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:10:-1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:10:1", "--inputs", "w"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "a:b:c"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:10:1", "--inputs", "0.6,0.8"],
        ["tomo", "--scheme", "scheme1", "--theta", "10", "--shots", "0"],
        ["map", "--scheme", "scheme1"],  # named scheme without its angle
    ):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "error" in json.loads(err)


def test_gamma_flag_threads_through(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(
        ["sweep", "--scheme", "single_crystal", "--theta-range", "0:0:1",
         "--inputs", "p", "--gamma", "0.5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    _, rows = read_rows(out)
    assert abs(float(rows[0][5]) - 0.5) < 1e-12


def test_gamma_overrides_a_scheme_file_and_invalid_values_exit_2(tmp_path, capsys):
    path = tmp_path / "crystal.json"
    path.write_text(json.dumps({"coherence": 0.2, "elements": [{"kind": "crystal", "angle_deg": 0.0, "delay_bins": 1}]}))
    # one crystal at 0 deg scales S2 by the coherence
    for gamma, expected in (([], 0.2), (["--gamma", "0.5"], 0.5)):
        code, out, _ = run_cli(["map", "--scheme", str(path), "--samples", "10", *gamma], capsys)
        assert code == 0
        assert json.loads(out)["channel"]["m"][1][1] == pytest.approx(expected, abs=1e-15)
    for gamma in ("nan", "-0.5", "1.5"):
        for scheme in (str(path), "single_crystal"):
            for command in (["map", "--samples", "10"], ["tomo", "--shots", "100"]):
                argv = [command[0], "--scheme", scheme, "--theta", "0", "--gamma", gamma, *command[1:]]
                code, out, err = run_cli(argv, capsys)
                assert code == 2 and out == "", argv
                assert "coherence" in json.loads(err)["error"], argv


def test_gamma_0_sets_a_scheme_file_coherence_to_0(tmp_path, capsys):
    path = tmp_path / "crystal.json"
    path.write_text(json.dumps({"coherence": 0.2, "elements": [{"kind": "crystal", "angle_deg": 0.0, "delay_bins": 1}]}))
    code, out, _ = run_cli(["map", "--scheme", str(path), "--samples", "10", "--gamma", "0"], capsys)
    assert code == 0
    assert json.loads(out)["channel"]["m"][1][1] == 0


def test_theta_is_rejected_where_there_is_no_angle(tmp_path, capsys):
    path = tmp_path / "lyot.json"
    path.write_text(json.dumps(build_scheme("lyot").to_json()))
    for scheme in ("lyot", str(path)):
        for command in (["map", "--samples", "10"], ["tomo", "--shots", "100"]):
            for theta in ("5", "nan"):
                argv = [command[0], "--scheme", scheme, "--theta", theta, *command[1:]]
                code, out, err = run_cli(argv, capsys)
                assert code == 2 and out == "", argv
                assert "theta" in json.loads(err)["error"], argv
            code, out, _ = run_cli([command[0], "--scheme", scheme, *command[1:]], capsys)
            assert code == 0 and json.loads(out)["theta_deg"] is None


def test_malformed_scheme_files_exit_2(tmp_path, capsys):
    docs = {
        "nan_angle": '{"elements": [{"kind": "crystal", "angle_deg": NaN, "delay_bins": 1}]}',
        "no_delay": '{"elements": [{"kind": "crystal", "angle_deg": 0.0}]}',
        "elements_not_a_list": '{"elements": 5}',
        "infinite_delay": '{"elements": [{"kind": "crystal", "angle_deg": 0.0, "delay_bins": 1e400}]}',
    }
    for name, text in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for command in (["map", "--samples", "10"], ["tomo", "--shots", "100"]):
            code, out, err = run_cli([command[0], "--scheme", str(path), *command[1:]], capsys)
            assert code == 2 and out == "", name
            assert "error" in json.loads(err)


def test_a_scheme_file_over_the_size_cap_exits_2(tmp_path, capsys):
    text = json.dumps(build_scheme("scheme1", 30.0).to_json())
    path = tmp_path / "padded.json"
    path.write_text(text.ljust(cli.MAX_SCHEME_BYTES))  # padded with spaces to the cap exactly
    code, out, _ = run_cli(["map", "--scheme", str(path), "--samples", "10"], capsys)
    assert code == 0 and json.loads(out)["n_samples"] == 10
    path.write_text(text.ljust(cli.MAX_SCHEME_BYTES + 1))  # one byte over the cap
    for command in (["map", "--samples", "10"], ["tomo", "--shots", "100"]):
        code, out, err = run_cli([command[0], "--scheme", str(path), *command[1:]], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "longer than 1048576 bytes" in json.loads(err)["error"]


def test_deeply_nested_scheme_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"elements":' + "[" * 100_000)
    for command in (["map", "--samples", "10"], ["tomo", "--shots", "100"]):
        code, out, err = run_cli([command[0], "--scheme", str(path), *command[1:]], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "RecursionError" in json.loads(err)["error"]


def test_unbounded_and_non_finite_grids_are_rejected(capsys):
    for args in (
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:inf:1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "nan:1:1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:1:inf"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:1e7:1"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:1e308:1e-308"],
        ["compare", "--theta-range", "0:1:1e-9"],
        ["map", "--scheme", "lyot", "--samples", "1000001"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:1:1", "--inputs", "nan,0,0"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:1:1", "--inputs", "triad:nan"],
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:0:1", "--inputs", "1e200,1e200,0"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "", args
        assert "error" in json.loads(err)


def test_theta_grid_cap_and_endpoint_rounding():
    assert len(_parse_theta_range("0:999999:1")) == MAX_POINTS
    assert _parse_theta_range("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.30000000000000004]


# --- byte guards: --out files pinned by sha256, the same bytes on every BLAS kernel and SIMD dispatch ---

PINNED_OUTPUTS = [
    (["sweep", "--scheme", "isotropic_triple", "--theta-range", "0:90:0.5", "--inputs", "h", "p", "r"],
     "24720de98d69481e990e25fdea116bb4cb1a0e5ca8ed1ea55b303e2ecbf504f8"),
    (["sweep", "--scheme", "scheme2", "--gamma", "0.3", "--theta-range", "0:90:0.5",
      "--inputs", "triad:0.3", "0.6,0.8,0"],
     "c2832c627b1bc651a98eb6597287478255b172363402b8469570494f8c512ffa"),
    (["compare", "--theta-range", "0:90:1"],
     "8b481f46b6d292a020c57ed34c31a441bb4e7dc9cbf6d6cb6f5f6413aa83ce62"),
    (["map", "--scheme", "isotropic_triple", "--theta", "33.3", "--samples", "500"],
     "61792e72ecd3661d5304e7fd10eb554cf3ba9fce3f51f27054cb978ffb2d08b2"),
    (["map", "--scheme", "lyot", "--samples", "3"],
     "c271109f831430cb5005b8d4f7ecb3083b0c65f33e65ac8ad6c366df8d81dd6f"),
    # five plate + crystal pairs with delays 81, 27, 9, 3, 1: 32 sparse bins, whose coherent band at gamma = 0.2
    # shows in M, b and the points and stops before the half-width
    (["map", "--scheme", "schemes/chain_3k.json", "--gamma", "0.2", "--samples", "100"],
     "b30c69957d022b51d128c0958bec2a6d23110006b5b81cc5dc5c701fe9c71fc0"),
    # a band weight gamma**4 at gamma = 0.3, which numpy's AVX-512 power rounds otherwise, shows in b
    (["map", "--scheme", "scheme3", "--theta", "10", "--gamma", "0.3", "--samples", "3"],
     "4144639cc40dac29cd2df823e5a3982f9bc31e5b62284c7097377b9365d1242f"),
]

TESTS_DIR = pathlib.Path(__file__).parent


@pytest.mark.parametrize(
    "argv, digest",
    PINNED_OUTPUTS,
    ids=["sweep-triple", "sweep-scheme2-gamma", "compare", "map-triple", "map-lyot", "map-chain-gamma",
         "map-scheme3-gamma"],
)
def test_out_bytes_are_pinned(tmp_path, capsys, monkeypatch, argv, digest):
    # a scheme file's path is part of the map report, so it is given relative to the tests directory
    monkeypatch.chdir(TESTS_DIR)
    out = tmp_path / "out"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0 and stdout == "" and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the settings the pinned bytes must hold under, each applied to a fresh interpreter: two more OpenBLAS kernels,
# the host's own, and numpy's dispatch without its AVX2 and AVX-512 targets or without its AVX-512 ones
KERNEL_SETTINGS = [
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
    ("native core", {}),
    ('NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"',
     {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}),
    ('NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"', {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}),
]

# runs each argv read from stdin through depolsim.cli.main into the file named by argv[1]; prints numpy's CPU
# features once numpy has started, then the sha256 of every output
KERNEL_RUN = """
import hashlib, json, sys
from numpy._core import _multiarray_umath
print("FEATURES", json.dumps({k: bool(v) for k, v in _multiarray_umath.__cpu_features__.items()}), flush=True)
from depolsim.cli import main
digests = []
for argv in json.loads(sys.stdin.read()):
    if main(argv + ["--out", sys.argv[1]]) != 0:
        sys.exit(1)
    with open(sys.argv[1], "rb") as fh:
        digests.append(hashlib.sha256(fh.read()).hexdigest())
print("DIGESTS", json.dumps(digests))
"""


def run_under(variables, script, *args, stdin=""):
    """`script` in a fresh interpreter with `variables` set, the kernel variables otherwise unset, OpenBLAS
    reporting its core on stderr, and this checkout's depolsim first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env.update(variables, OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], input=stdin, capture_output=True, text=True, cwd=TESTS_DIR, env=env,
        timeout=600,
    )


def openblas_core(stderr):
    match = re.search(r"^Core: (\S+)", stderr, re.MULTILINE)
    return match and match.group(1)


@pytest.mark.parametrize("setting", KERNEL_SETTINGS, ids=[name for name, _ in KERNEL_SETTINGS])
def test_pinned_outputs_hold_on_every_kernel(tmp_path, setting):
    name, variables = setting
    proc = run_under(variables, KERNEL_RUN, str(tmp_path / "out"), stdin=json.dumps([a for a, _ in PINNED_OUTPUTS]))
    report = dict(line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line)
    if "FEATURES" not in report:
        pytest.skip(f"{name}: numpy does not start under it: {proc.stderr.strip()[-300:]}")
    if "OPENBLAS_CORETYPE" in variables:
        core, native = openblas_core(proc.stderr), openblas_core(run_under({}, "import numpy").stderr)
        if core is None or (core == native and core.lower() != variables["OPENBLAS_CORETYPE"].lower()):
            pytest.skip(f"{name}: OpenBLAS here does not take it (core {core}, natively {native})")
    if "NPY_DISABLE_CPU_FEATURES" in variables:
        features = json.loads(report["FEATURES"])
        if any(features.get(f, True) for f in variables["NPY_DISABLE_CPU_FEATURES"].split()):
            pytest.skip(f"{name}: numpy here does not know, or does not turn off, every feature named")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report["DIGESTS"]) == [digest for _, digest in PINNED_OUTPUTS]


def test_chunked_grids_match_one_batch(tmp_path, capsys, monkeypatch):
    commands = {
        "sweep": ["sweep", "--scheme", "isotropic_triple", "--theta-range", "0:90:2.5", "--inputs", "h", "triad:0.2"],
        "compare": ["compare", "--theta-range", "0:90:2.5"],
    }
    whole = {}
    for name, argv in commands.items():
        whole[name] = tmp_path / f"{name}.whole"
        assert run_cli(argv + ["--out", str(whole[name])], capsys)[0] == 0
    batch_sizes = []
    batched_run_scheme = cli.run_scheme

    def recording_run_scheme(config, j):
        batch_sizes.append(config.batch)
        return batched_run_scheme(config, j)

    monkeypatch.setattr(cli, "THETA_CHUNK", 7)
    monkeypatch.setattr(cli, "run_scheme", recording_run_scheme)
    for name, argv in commands.items():
        batch_sizes.clear()
        chunked = tmp_path / f"{name}.chunked"
        assert run_cli(argv + ["--out", str(chunked)], capsys)[0] == 0
        assert chunked.read_bytes() == whole[name].read_bytes()
        # 37 angles: five full chunks and a remainder, never more than one chunk at a time
        assert batch_sizes == [7] * 5 + [2]


def test_a_failure_while_writing_removes_the_partial_out_file(tmp_path, capsys, monkeypatch):
    calls = []
    batched_run_scheme = cli.run_scheme

    def failing_run_scheme(config, j):
        calls.append(config.batch)
        if len(calls) == 2:
            raise ValueError("engine failure in the second chunk")
        return batched_run_scheme(config, j)

    monkeypatch.setattr(cli, "THETA_CHUNK", 7)
    monkeypatch.setattr(cli, "run_scheme", failing_run_scheme)
    for argv in (
        ["sweep", "--scheme", "scheme1", "--theta-range", "0:90:2.5"],
        ["compare", "--theta-range", "0:90:2.5"],
    ):
        calls.clear()
        out = tmp_path / f"{argv[0]}.csv"
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == "" and "second chunk" in json.loads(err)["error"]
        assert calls == [7, 7] and not out.exists()


def test_map_with_non_finite_channel_or_points_exits_2(tmp_path, capsys, monkeypatch):
    # a NaN channel, and a finite one whose points overflow: z = 0.9 maps to 0.9e308 + 1e308
    for m, b in ((np.full((3, 3), np.nan), np.zeros(3)), (1e308 * np.eye(3), np.full(3, 1e308))):
        monkeypatch.setattr(cli, "extract_channel", lambda config, m=m, b=b: StokesChannel(m, b))
        out = tmp_path / "map.json"
        with np.errstate(over="ignore"):
            code, stdout, err = run_cli(["map", "--scheme", "lyot", "--samples", "10", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert isinstance(json.loads(err)["error"], str)
        assert not out.exists()


def reference_map_text(scheme, theta, samples, config):
    """The map document as one json.dumps call renders it, points included."""
    channel = extract_channel(config)
    points = np.einsum("nj,ij->ni", fibonacci_sphere(samples), channel.m) + channel.b
    report = {
        "scheme": scheme,
        "theta_deg": theta,
        "n_samples": samples,
        "channel": channel.to_json(),
        "points": [[float(x) for x in row] for row in points],
    }
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_map_text_equals_one_json_dumps(tmp_path, capsys):
    config = SchemeConfig.from_json(
        {"elements": [{"kind": "crystal", "angle_deg": 10.0, "delay_bins": 1},
                      {"kind": "qwp", "angle_deg": 30.0},
                      {"kind": "crystal", "angle_deg": 95.0, "delay_bins": 2}]}
    )
    odd_dir = tmp_path / 'a "quoted": [dir]'
    odd_dir.mkdir()
    path = odd_dir / "s.json"
    path.write_text(json.dumps(config.to_json()))
    out = tmp_path / "map.json"
    assert run_cli(["map", "--scheme", str(path), "--samples", "17", "--out", str(out)], capsys)[0] == 0
    assert out.read_text() == reference_map_text(str(path), None, 17, config)


def test_points_writer_matches_json_on_signed_zeros_and_extremes():
    points = np.array([[-0.0, 0.0, 1e-320], [-1.0, 1 / 3, 2.5e300], [5e-324, -7.0, 0.1]])
    expected = json.dumps({"points": points.tolist()}, indent=2)
    assert "-0.0" in expected
    assert "".join(cli._points_json(points)) == expected[len('{\n  "points": '):-len("\n}")]


def test_map_writes_its_points_in_pieces_with_the_bytes_of_one(capsys, monkeypatch):
    argv = ["map", "--scheme", "isotropic_triple", "--theta", "33.3"]
    whole = {}
    for samples in (3, 7, 8, 15):
        code, whole[samples], _ = run_cli(argv + ["--samples", str(samples)], capsys)
        assert code == 0
    monkeypatch.setattr(cli, "POINTS_CHUNK", 7)
    for samples, pieces in ((3, 1), (7, 1), (8, 2), (15, 3)):
        assert len(list(cli._points_json(np.zeros((samples, 3))))) == pieces + 1
        code, stdout, _ = run_cli(argv + ["--samples", str(samples)], capsys)
        assert code == 0 and stdout == whole[samples]


def test_a_stokes_vector_input_is_one_quoted_csv_field(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scheme", "scheme1", "--theta-range", "0:0:1", "--inputs", "h", "0,0.6,0.8", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert [row[1] for row in rows] == ["input", "h", "0,0.6,0.8"]
    assert out.read_text().split("\n")[2].startswith('0,"0,0.6,0.8",')


# --- argv fuzzing: every argv exits 0, or 2 with one JSON object on stderr ---

# "@" stands for a scratch directory holding a valid scheme file and three malformed ones
SCHEME_ARGS = st.sampled_from(
    SCHEME_NAMES + ("bogus", "@lyot.json", "@broken.json", "@nested.json", "@string_angle.json", "@absent.json", "@")
)
NUMBERS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "0", "1", "0.3", "-1", "0.999999"]),
)
COUNTS = st.one_of(st.integers(-10, 1000), st.integers(1, 10**20)).map(str) | st.sampled_from(["", "1.5", "z"])
SEEDS = st.one_of(st.integers(-5, 2**70), st.just("-0x1"))


@st.composite
def theta_ranges(draw):
    if draw(st.booleans()):
        start = draw(st.floats(-360.0, 360.0))
        step = draw(st.floats(1e-3, 90.0))
        points = draw(st.integers(0, 1000))
        return f"{start!r}:{start + points * step!r}:{step!r}"
    return draw(st.sampled_from(["0:inf:1", "nan:1:1", "1:0:1", "0:1", "0:10:-1", "a:b:c", "0:1e9:1", "::"]))


INPUT_TOKENS = st.one_of(
    st.sampled_from(["h", "v", "p", "m", "r", "l", "w", "", "triad:", "triad:0.2", "triad:-0.5", "triad:1.5",
                     "1,0,0", "0,0.6,0.8", "2,0,0", "nan,0,0", "1,0", ",", "0,0,0"]),
    st.tuples(NUMBERS, NUMBERS, NUMBERS).map(",".join),
    NUMBERS.map(lambda x: "triad:" + x),
)

FLAGS = {
    "--scheme": SCHEME_ARGS,
    "--theta": NUMBERS,
    "--theta-range": theta_ranges(),
    "--gamma": NUMBERS,
    "--samples": st.one_of(st.integers(-5, 1000).map(str), st.sampled_from(["2000000", "1e3", ""])),
    "--shots": COUNTS,
    "--seed": SEEDS.map(str),
    "--out": st.sampled_from(["@out.txt", "@absent/out.txt", "@"]),
}


@st.composite
def argvs(draw):
    flags = draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=6, unique=True))
    groups = [[flag, draw(FLAGS[flag])] for flag in flags]
    if draw(st.booleans()):
        groups.append(["--inputs", *draw(st.lists(INPUT_TOKENS, min_size=1, max_size=4))])
    junk = draw(st.lists(st.sampled_from(["--exact", "--bogus", "--help", "extra", "--"]), max_size=2))
    groups += [[token] for token in junk]
    command = draw(st.sampled_from(["sweep", "map", "tomo", "compare", "bogus", "-h"]))
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


def one(values):
    return values.map(lambda value: [value])


@st.composite
def command_argvs(draw, command, required, optional):
    """`command` with all its `required` flags and some `optional` ones in any order; each maps to its value lists."""
    flags = list(required) + draw(st.lists(st.sampled_from(sorted(optional)), max_size=len(optional), unique=True))
    groups = [[flag, *draw({**required, **optional}[flag])] for flag in flags]
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


# each command with its own flags and mostly valid values on small grids, inputs and shot counts, so that
# many runs exit 0 and their output can be checked
MOSTLY_NAMED = one(st.sampled_from(SCHEME_NAMES) | SCHEME_ARGS)
SMALL_RANGES = one(
    st.builds(
        lambda start, step, points: f"{start!r}:{start + points * step!r}:{step!r}",
        st.floats(-360.0, 360.0),
        st.floats(0.5, 90.0),
        st.integers(0, 4),
    )
)
GAMMAS = one(st.sampled_from(["0", "0.3", "0.999999"]) | NUMBERS)
OUT = one(st.just("@out.txt"))
COMMAND_ARGVS = (
    command_argvs(
        "map",
        {"--scheme": one(SCHEME_ARGS)},
        {"--theta": one(NUMBERS), "--gamma": GAMMAS, "--samples": one(st.integers(3, 300).map(str)), "--out": OUT},
    )
    | command_argvs(
        "sweep",
        {"--scheme": MOSTLY_NAMED, "--theta-range": SMALL_RANGES},
        {
            "--inputs": st.lists(
                st.sampled_from(["0,0.6,0.8", "h", "v", "p", "m", "r", "l", "triad:0.2", "triad:-0.5", "1,0,0", "-0.6,0,0.8"])
                | INPUT_TOKENS,
                min_size=1,
                max_size=3,
            ),
            "--gamma": GAMMAS,
            "--out": OUT,
        },
    )
    | command_argvs(
        "tomo",
        {"--scheme": MOSTLY_NAMED},
        {
            "--theta": one(st.floats(-360.0, 360.0).map(repr) | NUMBERS),
            "--shots": one(st.integers(1, 10_000).map(str) | COUNTS),
            "--seed": one(st.integers(0, 2**32).map(str) | SEEDS.map(str)),
            "--exact": st.just([]),
            "--gamma": GAMMAS,
            "--out": OUT,
        },
    )
    | command_argvs("compare", {"--theta-range": SMALL_RANGES}, {"--out": OUT})
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    lyot = {"elements": [{"kind": "crystal", "angle_deg": 0.0, "delay_bins": 1},
                         {"kind": "crystal", "angle_deg": 45.0, "delay_bins": 2}]}
    (root / "lyot.json").write_text(json.dumps(lyot))
    (root / "broken.json").write_text('{"elements": [{"kind": "crystal"}')
    (root / "nested.json").write_text('{"elements":' + "[" * 100_000)
    (root / "string_angle.json").write_text('{"elements": [{"kind": "hwp", "angle_deg": "45"}]}')
    return str(root) + "/"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=argvs() | COMMAND_ARGVS)
def test_fuzzed_argv_exits_0_or_2_with_a_json_error(fuzz_dir, argv):
    argv = [token.replace("@", fuzz_dir) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, argv
        assert isinstance(json.loads(err.getvalue())["error"], str), argv
    else:
        assert err.getvalue() == "", argv
        if "--help" not in argv and "-h" not in argv:
            args = cli.build_parser().parse_args(argv)
            CHECK_OUTPUT[args.command](args, read_output(args, out.getvalue()))


def read_output(args, stdout):
    if args.out:
        with open(args.out, encoding="utf-8") as fh:
            return fh.read()
    return stdout


def check_map_report(args, text):
    """theta_deg is null exactly where there is no angle; a named scheme's channel is reproduced bit for bit."""
    report = json.loads(text)
    assert (report["theta_deg"] is None) == (args.scheme == "lyot" or args.scheme not in SCHEME_NAMES), args
    if args.scheme in SCHEME_NAMES:
        config = build_scheme(args.scheme, args.theta, coherence=0.0 if args.gamma is None else args.gamma)
        expected = extract_channel(config).to_json()
        assert json.dumps(expected, sort_keys=True) == json.dumps(report["channel"], sort_keys=True), args


def check_tomo_report(args, text):
    assert 0.0 <= json.loads(text)["process_fidelity"] <= 1.0, args


CSV_HEADERS = {"sweep": "theta_deg,input,s1,s2,s3,dop", "compare": "theta_deg,s1_sq,dop_engine,dop_analytic,abs_diff"}


def check_csv(args, text):
    """The header, then one row per (angle, input) of 6 (sweep) or 5 (compare) fields: sweep's input label
    and a finite number in every other field."""
    assert text.endswith("\n"), args
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert ",".join(header) == CSV_HEADERS[args.command], args
    thetas = _parse_theta_range(args.theta_range)
    labels = [name for name, _ in cli._parse_inputs(args.inputs)] if args.command == "sweep" else [None] * 3
    assert len(rows) == len(thetas) * len(labels), args
    for row, label in zip(rows, labels * len(thetas)):
        assert len(row) == len(header), args
        if label is not None:
            assert row.pop(1) == label, args
        assert all(math.isfinite(float(x)) for x in row), args


CHECK_OUTPUT = {"map": check_map_report, "tomo": check_tomo_report, "sweep": check_csv, "compare": check_csv}
