import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headswap.cli import ABLATE_KEYS, UsageError, cli_main, main, parse_attrs, read_config_file
from headswap.experiment import RECORD_FIELDS, sample_pairs
from headswap.hid import RunConfig
from helpers import files_identical, read_pnm

ROOT = Path(__file__).resolve().parents[1]

GOOD_ROW = {
    "pair_id": "pair000",
    "body_attrs": [0, 2, 0, 1, 0],
    "head_attrs": [2, 0, 1, 3, -1],
    "variant": "full",
    "iou": 0.5,
    "mse_head": 0.01,
    "mse_outside": 0.0,
    "attr_probe": {"matched": 2, "total": 3},
}


class TestAttributeParsing:
    def test_valid_tuple(self):
        spec = parse_attrs("2,1,0,3,-1", "--body")
        assert spec.to_ints() == (2, 1, 0, 3, -1)

    def test_wrong_arity(self):
        with pytest.raises(UsageError, match="--body"):
            parse_attrs("1,2,3", "--body")

    def test_non_integer(self):
        with pytest.raises(UsageError, match="non-integer"):
            parse_attrs("1,2,x,0,0", "--body")

    def test_out_of_range_names_field(self):
        with pytest.raises(UsageError, match="hair_style"):
            parse_attrs("0,7,0,0,0", "--head")


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("T = 40\nw = 2.5\nvariant = naive\n")
        values = read_config_file(str(path))
        assert values == {"T": 40, "w": 2.5, "variant": "naive"}
        path.write_text("tau = 0.5\nseed = 9\n")
        assert read_config_file(str(path), ABLATE_KEYS) == {"tau": 0.5, "seed": 9}
        path.write_text("T = 50\n", encoding="utf-8-sig")  # as some editors save UTF-8
        assert read_config_file(str(path)) == {"T": 50}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("speed = 11\n")
        with pytest.raises(UsageError, match="speed"):
            read_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("T = fast\n")
        with pytest.raises(UsageError, match="T"):
            read_config_file(str(path))

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# settings\nT = 40\nw 2.5\n")
        with pytest.raises(UsageError, match=r"run.cfg:3: expected 'key = value', got 'w 2.5'"):
            read_config_file(str(path))

    def test_missing_file_is_runtime_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            read_config_file(str(tmp_path / "absent.cfg"))


class TestExitCodes:
    def test_malformed_attrs_exit_one(self, tmp_path, capsys):
        code = cli_main(["swap", "--body", "1,2", "--head", "0,0,0,0,0", "--out", str(tmp_path)])
        assert code == 1
        assert "--body" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = cli_main(
            [
                "swap",
                "--body", "0,0,0,0,0",
                "--head", "0,0,0,0,0",
                "--config", str(tmp_path / "none.cfg"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_unknown_config_key_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pace = 3\n")
        code = cli_main(
            [
                "mask",
                "--body", "0,0,0,0,0",
                "--head", "0,0,0,0,0",
                "--config", str(cfg),
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "key,value",
        [("T", "1"), ("T", "1001"), ("tau", "2"), ("sigma", "0"), ("sigma", "101"), ("w", "-1"),
         ("w", "nan"), ("w", "inf"), ("edit_fraction", "0.001")],
    )
    def test_bad_setting_exit_one(self, tmp_path, capsys, key, value, via_config):
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            setting = ["--config", str(cfg)]
        else:
            setting = ["--" + key.replace("_", "-"), value]
        out = tmp_path / "out"
        argv = ["swap", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(out)]
        assert cli_main(argv + setting) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()  # rejected before any pipeline work

    @pytest.mark.parametrize(
        "bad_line",
        [
            json.dumps({k: v for k, v in GOOD_ROW.items() if k != "variant"}),
            json.dumps({**GOOD_ROW, "attr_probe": {"matched": 0, "total": 0}}),
            '{"pair_id": "pair001", ',
            json.dumps(GOOD_ROW).replace('"iou": 0.5', '"iou": 1' + "0" * 400),
            json.dumps({**GOOD_ROW, "iou": float("nan")}),
            json.dumps({**GOOD_ROW, "iou": 1.5}),
            json.dumps({**GOOD_ROW, "mse_head": -0.01}),
            json.dumps({**GOOD_ROW, "mse_outside": float("inf")}),
            "[" * 100_000,
        ],
        ids=["missing_variant", "zero_probe_total", "not_json", "huge_iou", "nan_iou",
             "iou_above_one", "negative_mse", "infinite_mse", "deep_nesting"],
    )
    def test_eval_malformed_metrics_exit_two(self, tmp_path, capsys, bad_line):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(GOOD_ROW) + "\n" + bad_line + "\n")
        assert cli_main(["eval", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    def test_eval_empty_metrics_exit_two(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_text("")
        assert cli_main(["eval", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_eval_non_ascii_byte_exit_two(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_bytes(json.dumps(GOOD_ROW).encode() + b"\n" + b'{"pair_id": "caf\xc3\xa9"}\n')
        assert cli_main(["eval", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_ablate_rejects_variant(self, tmp_path, capsys, via_config):
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("variant = naive\n")
            setting = ["--config", str(cfg)]
        else:
            setting = ["--variant", "naive"]
        out = tmp_path / "out"
        assert cli_main(["ablate", "--pairs", "1", "--out", str(out)] + setting) == 1
        assert "variant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["swap", "mask"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_swap_and_mask_reject_seed(self, tmp_path, capsys, command, via_config):
        # neither command samples anything, so a seed would be silently ignored
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = 3\n")
            setting = ["--config", str(cfg)]
        else:
            setting = ["--seed", "3"]
        out = tmp_path / "out"
        argv = [command, "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(out)]
        assert cli_main(argv + setting) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["swap", "mask"])
    def test_swap_and_mask_reject_pairs_key(self, tmp_path, capsys, command):
        # each runs one pair, so a pair count would be silently ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pairs = 2\n")
        out = tmp_path / "out"
        argv = [command, "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(out)]
        assert cli_main(argv + ["--config", str(cfg)]) == 1
        assert "unknown config key 'pairs'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_exit_one(self):
        assert cli_main(["swap", "--bogus"]) == 1

    def test_eval_without_metrics_exit_two(self, tmp_path):
        assert cli_main(["eval", "--out", str(tmp_path)]) == 2

    def test_help_exit_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv, code", [(["--help"], 0), (["swap", "--bogus"], 1), (["eval", "--out", "."], 2)],
        ids=["help", "usage", "runtime"],
    )
    def test_main_exits_with_cli_mains_code(self, tmp_path, capsys, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)  # which holds no metrics.jsonl
        monkeypatch.setattr(sys, "argv", ["headswap"] + argv)
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == code


class TestGen:
    def test_writes_dataset_and_index(self, tmp_path):
        out = tmp_path / "data"
        assert cli_main(["gen", "--out", str(out)]) == 0
        lines = (out / "dataset.tsv").read_text().splitlines()
        assert len(lines) == 324
        name, *fields = lines[0].split("\t")
        assert name == "avatar_000.ppm"
        assert [int(v) for v in fields] == [0, 0, 0, 0, -1]
        image = read_pnm(out / name)
        assert image.shape == (32, 32, 3)


class TestSwapAndMask:
    def test_swap_writes_artifacts(self, tmp_path):
        out = tmp_path / "swap"
        code = cli_main(
            ["swap", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(out)]
        )
        assert code == 0
        for name in (
            "body.ppm", "head.ppm", "oracle.ppm", "output.ppm",
            "mask.pgm", "iomap.pgm", "overlay.ppm", "metrics.jsonl",
        ):
            assert (out / name).exists(), name
        mask = read_pnm(out / "mask.pgm")
        assert set(np.unique(mask)) <= {0, 255}

    def test_identity_swap_warns_of_an_empty_mask(self, tmp_path, capsys):
        # at w = 1 a swap of a body onto itself has no edit evidence
        attrs = "0,2,0,1,0"
        argv = ["swap", "--body", attrs, "--head", attrs, "--w", "1", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "warning: edit mask is empty; output equals the body image" in out.splitlines()
        assert not read_pnm(tmp_path / "mask.pgm").any()
        assert files_identical(tmp_path / "output.ppm", tmp_path / "body.ppm")

    def test_overflowing_swap_exits_two_without_output_or_metrics(self, tmp_path):
        # w = 1e308 is a valid setting, but the denoise overflows to NaN: the
        # encoder refuses its image, which eval would reject, before any
        # file of the swap (or its directory) is created
        out = tmp_path / "swap"
        pair = ["--body", "0,2,0,0,-1", "--head", "1,0,1,0,1"]
        with np.errstate(all="ignore"):
            code, err = run_cli(["swap", *pair, "--w", "1e308", "--out", str(out)])
        assert code == 2
        assert "error: grid contains non-finite values" in err
        assert not out.exists()

    def test_mask_subcommand_emits_map_mask_overlay(self, tmp_path):
        out = tmp_path / "mask"
        code = cli_main(
            ["mask", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(out)]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"iomap.pgm", "mask.pgm", "overlay.ppm"}

    def test_cli_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = naive\nw = 1\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["mask", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--config", str(cfg)]
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b), "--variant", "full", "--w", "3"]) == 0
        # overriding the variant and scale must change the emitted mask
        assert not files_identical(out_a / "mask.pgm", out_b / "mask.pgm")


class TestAblateAndEval:
    def test_ablate_runs_and_eval_reads_back(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = cli_main(["ablate", "--pairs", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 6  # 2 pairs x 3 variants
        capsys.readouterr()
        assert cli_main(["eval", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "full" in printed and "naive" in printed and "no_orth" in printed

    def test_ablate_prints_the_summary_eval_prints(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert cli_main(["ablate", "--pairs", "2", "--seed", "3", "--out", str(out)]) == 0
        *summary, wrote = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote records to {out / 'metrics.jsonl'}"
        assert cli_main(["eval", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == summary

    def test_seeded_ablate_metrics_digest(self, tmp_path):
        # Pins the exact numerics end to end: any change to a prediction,
        # mask, denoise step or metric moves this digest.  The bytes do not
        # depend on the BLAS thread count, but they may depend on the
        # OpenBLAS version (measured with 0.3.31); a deliberate numerics
        # change re-pins it and records the largest metric deviation.
        out = tmp_path / "ablate"
        argv = ["ablate", "--pairs", "8", "--seed", "7", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0
        digest = hashlib.sha256((out / "metrics.jsonl").read_bytes()).hexdigest()
        assert digest == "8970754ff19e22f483d2f67022ef0e9af9b61a946357d76945434abcd7f41613"

    def test_single_swap_and_mask_digests(self, tmp_path):
        # Pins every file of the single-swap path (run_headswap, the image
        # writers and the mask files), which the ablate digest does not see.
        # As above, the bytes may depend on the OpenBLAS version (0.3.31).
        pair = ["--body", "0,2,0,1,0", "--head", "2,0,1,3,-1"]
        mask_files = {
            "iomap.pgm": "0f2423a555dde66d0dd391500d6872efb8f2bd707a79c61970fc4e4ea5796513",
            "mask.pgm": "75a54bd6dbb7cf03359c43ddf272512d4c935c6f4022a355ccc7251f6b4fda2b",
            "overlay.ppm": "4a1f0da795a79819cd6c0200f6f5fdcef643b3d2cd5d48bc1fd0901c8aecb377",
        }
        swap_files = {
            **mask_files,
            "body.ppm": "5d7ef82f10c7f8d7114236d57c53576f1703217df0d6ebb6122adf524238ebc2",
            "head.ppm": "d9c958922aae97db19d30e9f8b8e78e8ab35848074f649c707e567c8c7d39b8f",
            "oracle.ppm": "f1ca4622e3f50082c214700fd1e03b0a816ea66114f1a77586a7edab39a0a819",
            "output.ppm": "ecb4802b5e487a714a09bfefc032d45614e7bef1c85ea884deda30280c30bdea",
            "metrics.jsonl": "e901cff4c60bb64f489a91b37a2632aa773895e014f1cd703d9932c14dc0b5ec",
        }
        for command, want in (("swap", swap_files), ("mask", mask_files)):
            out = tmp_path / command
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main([command, *pair, "--out", str(out)]) == 0
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            assert got == want, command

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_ablate_takes_seed(self, tmp_path, via_config):
        # ablate samples its pairs from the seed; swap and mask refuse one
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = 3\n")
            setting = ["--config", str(cfg)]
        else:
            setting = ["--seed", "3"]
        out = tmp_path / "out"
        assert run_cli(["ablate", "--pairs", "1", "--out", str(out)] + setting)[0] == 0
        [first, *_] = (out / "metrics.jsonl").read_text().splitlines()
        assert json.loads(first)["body_attrs"] == list(sample_pairs(3, 1)[0][0].to_ints())

    def test_ablate_takes_pairs_from_a_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pairs = 2\nseed = 3\n")
        out = tmp_path / "out"
        assert run_cli(["ablate", "--out", str(out), "--config", str(cfg)])[0] == 0
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 2 * 3
        # the flag still overrides the file
        assert run_cli(["ablate", "--out", str(out), "--config", str(cfg), "--pairs", "1"])[0] == 0
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 3

    def test_failed_image_write_exits_two_without_metrics(self, tmp_path):
        out = tmp_path / "ablate"
        (out / "pair005_full_mask.pgm").mkdir(parents=True)  # a file of the second chunk
        threads_before = threading.active_count()
        code, err = run_cli(["ablate", "--pairs", "9", "--seed", "7", "--out", str(out)])
        assert code == 2
        assert "error:" in err and "pair005_full_mask.pgm" in err
        assert not (out / "metrics.jsonl").exists()
        assert threading.active_count() == threads_before

    def test_ablate_is_clean_under_dev_mode_and_warnings_as_errors(self, tmp_path):
        # an unclosed file or an exception lost in a thread or finalizer only
        # prints a warning, which -X dev -W error turns into stderr output
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        argv = ["ablate", "--pairs", "5", "--seed", "7", "--out", str(tmp_path / "dev")]
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "headswap.cli"] + argv,
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


class TestThreadDeterminism:
    def test_ablate_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
            )
            argv = ["ablate", "--pairs", "8", "--seed", "7", "--out", str(out)]
            done = subprocess.run(
                [sys.executable, "-m", "headswap.cli"] + argv,
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outs.append(out)
        names = sorted(path.name for path in outs[0].iterdir())
        assert len(names) == 1 + 8 * (3 + 3 * 3)  # metrics, 3 renders + 3 per variant
        assert names == sorted(path.name for path in outs[1].iterdir())
        assert [name for name in names if not files_identical(outs[0] / name, outs[1] / name)] == []


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of an in-process CLI run; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

SWAP_ARGV = ["swap", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1"]
ABLATE_ARGV = ["ablate", "--pairs", "1"]

SETTING_TEXT = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1e9", "1001", "-0", "nan", "-inf", " 7 ", "1_000", "0x10", ""]),
)
# values near the accepted ranges, so that some runs go through the pipeline
PLAUSIBLE_TEXT = st.one_of(
    st.integers(-1, 60).map(str),
    st.floats(-0.5, 8.0).map(repr),
    st.sampled_from(["full", "naive", "no_orth"]),
)


class TestCliProperties:
    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(RECORD_FIELDS + ("runtime_ms",)), value=JSON_VALUES)
    def test_eval_any_field_value_exits_zero_or_two(self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            row = {**GOOD_ROW, field: value}
            Path(tmp, "metrics.jsonl").write_text(json.dumps(row) + "\n", encoding="ascii")
            code, err = run_cli(["eval", "--out", tmp])
        assert code in (0, 2)
        assert "Traceback" not in err

    @settings(max_examples=40, deadline=None)
    @given(
        flag=st.sampled_from(["--T", "--w", "--tau", "--sigma", "--edit-fraction", "--seed"]),
        value=SETTING_TEXT,
    )
    def test_mask_any_setting_text_exits_zero_one_or_two(self, flag, value):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["mask", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", tmp]
            code, err = run_cli(argv + [f"{flag}={value}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=30, deadline=None)
    @given(
        argv=st.sampled_from([SWAP_ARGV, ABLATE_ARGV]),
        flag=st.sampled_from(["--T", "--w", "--tau", "--sigma", "--edit-fraction", "--seed"]),
        value=SETTING_TEXT | PLAUSIBLE_TEXT,
    )
    def test_swap_and_ablate_any_setting_text_exit_zero_one_or_two(self, argv, flag, value):
        with tempfile.TemporaryDirectory() as tmp:
            code, err = run_cli(argv + ["--out", tmp, f"{flag}={value}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=30, deadline=None)
    @given(
        argv=st.sampled_from([SWAP_ARGV, ABLATE_ARGV]),
        key=st.sampled_from(ABLATE_KEYS + ("variant",)),
        value=SETTING_TEXT | PLAUSIBLE_TEXT,
    )
    def test_swap_and_ablate_any_config_value_exit_zero_one_or_two(self, argv, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "run.cfg")
            config.write_text(f"{key} = {value}\n", encoding="utf-8")
            code, err = run_cli(argv + ["--out", str(Path(tmp, "out")), "--config", str(config)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=30, deadline=None)
    @given(
        argv=st.sampled_from([SWAP_ARGV, ABLATE_ARGV]),
        key=st.sampled_from(["T", "w", "tau", "sigma", "edit_fraction"]),
        comments=st.integers(0, 2),
        value=SETTING_TEXT | PLAUSIBLE_TEXT,
    )
    def test_swap_and_ablate_repeated_config_key_exit_one(self, argv, key, comments, value):
        # a repeat never silently replaces the first value, whatever it reads
        first = f"{key} = {getattr(RunConfig(), key)}\n"
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "run.cfg")
            text = first + "# note\n" * comments + f"{key} = {value}\n"
            config.write_text(text, encoding="utf-8")
            code, err = run_cli(argv + ["--out", str(Path(tmp, "out")), "--config", str(config)])
        assert code == 1
        assert f"{config}:{comments + 2}: repeated config key {key!r}, first set on line 1" in err
