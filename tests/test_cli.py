import json

import numpy as np
import pytest

from cubicorbit import (BitStream, MT19937, ConditionViolation, OrbitState,
                        generate_bits, validate_triple)
from cubicorbit import cli
from cubicorbit.bitstream import read_words_le, write_words_le
from cubicorbit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_ascii_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                               "--d", "-1", "--bits", "8", "--format", "ascii")
        assert code == 0
        assert out.strip() == "10101110"

    def test_zero_bits(self, tmp_path, capsys):
        # --bits 0, and no --bits at all, is a usage error that writes nothing
        src = ["generate", "--b", "0", "--c", "1", "--d", "-1"]
        out_file, ck = tmp_path / "bits.raw", tmp_path / "ck.txt"
        for argv in ([*src, "--bits", "0", "--format", "ascii"],
                     [*src, "--format", "ascii"],
                     [*src, "--bits", "0", "--out", str(out_file),
                      "--checkpoint", str(ck)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == "error: generate: --bits must be at least 1\n"
        assert not out_file.exists() and not ck.exists()

    def test_invalid_triple_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--b", "2", "--c", "1",
                               "--d", "-1", "--bits", "8", "--format", "ascii")
        assert code == 2
        assert "condition (i)" in err

    def test_raw_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bits.raw"
        code, _, _ = run_cli(capsys, "generate", "--b", "0", "--c", "2",
                             "--d", "-1", "--bits", "64", "--out", str(out))
        assert code == 0
        expect, _ = generate_bits(validate_triple(0, 2, -1), 64)
        assert BitStream.from_bytes(out.read_bytes()) == expect

    def test_words_file_matches_packing(self, tmp_path, capsys):
        out = tmp_path / "w.bin"
        code, _, _ = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                             "--d", "-1", "--bits", "96",
                             "--format", "words32le", "--out", str(out))
        assert code == 0
        expect, _ = generate_bits(validate_triple(0, 1, -1), 96)
        assert np.array_equal(read_words_le(out), expect.pack_words().words)

    def test_checkpoint_resume_equals_straight_run(self, tmp_path, capsys):
        ck = tmp_path / "state.txt"
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        run_cli(capsys, "generate", "--b", "3", "--c", "7", "--d", "-3",
                "--bits", "100", "--format", "ascii", "--out", str(first),
                "--checkpoint", str(ck))
        run_cli(capsys, "generate", "--resume", str(ck), "--bits", "60",
                "--format", "ascii", "--out", str(second))
        whole, _ = generate_bits(validate_triple(3, 7, -3), 160)
        assert first.read_text() + second.read_text() == whole.to01()

    def test_tampered_checkpoint_diverges_with_first_mismatch(self, tmp_path, capsys):
        ck = tmp_path / "state.txt"
        run_cli(capsys, "generate", "--b", "0", "--c", "1", "--d", "-1",
                "--bits", "40", "--format", "ascii", "--out",
                str(tmp_path / "head.txt"), "--checkpoint", str(ck))
        # corrupt the checkpoint into some other valid state
        state = OrbitState.from_text(ck.read_text())
        wrong = OrbitState(validate_triple(0, 2, -1), state.step_index)
        ck.write_text(wrong.to_text())
        cont = tmp_path / "cont.txt"
        run_cli(capsys, "generate", "--resume", str(ck), "--bits", "64",
                "--format", "ascii", "--out", str(cont))
        true_tail, _ = generate_bits(validate_triple(0, 1, -1), 104)
        got = cont.read_text()
        want = true_tail.to01()[40:]
        assert got != want
        first_bad = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
        assert first_bad >= 0

    def test_seed_set_pipeline_order_and_trimming(self, tmp_path, capsys):
        out = tmp_path / "fam.raw"
        code, _, _ = run_cli(capsys, "generate", "--seed-set", "0,3",
                             "--per-seed-bits", "64", "--drop-prefix-bits", "8",
                             "--out", str(out))
        assert code == 0
        chunks = []
        for d in (-1, -2, -3):
            bits, _ = generate_bits(validate_triple(0, 3, d), 64)
            chunks.append(bits[8:])
        want = chunks[0] + chunks[1] + chunks[2]
        assert BitStream.from_bytes(out.read_bytes()) == want

    def test_coefficient_limit_fails_before_writing(self, tmp_path, capsys):
        # --max-coeff-bits is no longer an option: a usage error, no output
        out, ck = tmp_path / "bits.raw", tmp_path / "state.txt"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--b", "0", "--c", "1", "--d", "-1",
                  "--bits", "1000", "--max-coeff-bits", "50",
                  "--out", str(out), "--checkpoint", str(ck)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-coeff-bits 50" in err
        assert "Traceback" not in err
        assert not out.exists() and not ck.exists()

    def test_drop_prefix_must_leave_bits(self, tmp_path, capsys):
        for per_seed, drop in (("10", "40"), ("10", "10"), ("64", "-1")):
            out = tmp_path / f"fam_{per_seed}_{drop}.raw"
            code, _, err = run_cli(capsys, "generate", "--seed-set", "0,3",
                                   "--per-seed-bits", per_seed,
                                   "--drop-prefix-bits", drop,
                                   "--out", str(out))
            assert code == 2
            assert "--drop-prefix-bits" in err
            assert not out.exists()

    def test_stdout_needs_ascii_before_any_work(self, tmp_path, capsys):
        ck = tmp_path / "ck.txt"
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "100",
                                 "--checkpoint", str(ck))
        assert code == 2
        assert out == ""
        assert err == "error: generate: only --format ascii can write to stdout\n"
        assert not ck.exists()

    def test_seed_set_parallel_matches_serial(self, tmp_path, capsys):
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        run_cli(capsys, "generate", "--seed-set", "0,4", "--per-seed-bits",
                "128", "--drop-prefix-bits", "32", "--out", str(a))
        run_cli(capsys, "generate", "--seed-set", "0,4", "--per-seed-bits",
                "128", "--drop-prefix-bits", "32", "--jobs", "2",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, n_bits", [
        (["--b", "0", "--c", "1", "--d", "-1", "--bits", "31"], 31),
        (["--b", "0", "--c", "1", "--d", "-1", "--bits", "100"], 100),
        (["--seed-set", "0,7", "--per-seed-bits", "100"], 476)],
        ids=["bits-31", "bits-100", "seed-set"])
    def test_words_need_whole_words(self, tmp_path, capsys, monkeypatch,
                                    argv, n_bits):
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file, ck = tmp_path / "w.bin", tmp_path / "ck.txt"
        extra = [] if "--seed-set" in argv else ["--checkpoint", str(ck)]
        code, out, err = run_cli(capsys, "generate", *argv, *extra,
                                 "--format", "words32le", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == (f"error: generate: --format words32le writes whole "
                       f"32-bit words, but {n_bits} bits is not a multiple "
                       f"of 32\n")
        assert not out_file.exists() and not ck.exists()

    def test_seed_set_words_of_whole_words(self, tmp_path, capsys):
        out = tmp_path / "w.bin"
        code, _, _ = run_cli(capsys, "generate", "--seed-set", "0,4",
                             "--per-seed-bits", "72", "--drop-prefix-bits", "8",
                             "--format", "words32le", "--out", str(out))
        assert code == 0
        chunks = [generate_bits(validate_triple(0, 4, d), 72)[0][8:]
                  for d in (-1, -2, -3, -4)]
        want = chunks[0] + chunks[1] + chunks[2] + chunks[3]
        assert len(want) == 256
        assert np.array_equal(read_words_le(out), want.pack_words().words)

    @pytest.mark.parametrize("given, named", [
        (["--b", "0", "--c", "1", "--d", "-1"], "--b, --c, --d"),
        (["--bits", "5"], "--bits"),
        (["--bits", "0"], "--bits"),
        (["--checkpoint", "CK", "--resume", "nothere.txt", "--bits", "5"],
         "--bits, --resume, --checkpoint")],
        ids=["triple", "bits", "bits-0", "checkpoint-resume-bits"])
    def test_seed_set_rejects_single_stream_options(self, tmp_path, capsys,
                                                    monkeypatch, given, named):
        monkeypatch.setattr(cli, "build_seed_set", None)  # no work may start
        out_file, ck = tmp_path / "f.raw", tmp_path / "ck.txt"
        given = [str(ck) if g == "CK" else g for g in given]
        code, out, err = run_cli(capsys, "generate", "--seed-set", "0,8",
                                 "--per-seed-bits", "64", *given,
                                 "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == f"error: generate: --seed-set does not take {named}\n"
        assert not out_file.exists() and not ck.exists()

    def test_checkpoint_written_after_the_output(self, tmp_path, capsys):
        ck = tmp_path / "ck.txt"
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "64", "--checkpoint",
                                 str(ck), "--out",
                                 str(tmp_path / "missing" / "x.raw"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not ck.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_seed_set_needs_a_worker(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "build_seed_set", None)  # no work may start
        out_file = tmp_path / "f.raw"
        code, out, err = run_cli(capsys, "generate", "--seed-set", "0,4",
                                 "--per-seed-bits", "128", "--jobs", jobs,
                                 "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == "error: generate: --jobs must be at least 1\n"
        assert not out_file.exists()


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--b", "0", "--c", "1",
                               "--d", "-1", "--bits", "256")
        assert code == 0
        assert "pass" in out

    def test_second_seed(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--b", "0", "--c", "2",
                             "--d", "-1", "--bits", "256")
        assert code == 0

    def test_corrupt_state_is_usage_error(self, monkeypatch, capsys):
        def corrupt(t, k):
            raise ConditionViolation("ii", 0, 1, 1)
        monkeypatch.setattr(cli, "isolate_root_bits", corrupt)
        code, out, err = run_cli(capsys, "verify", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "16")
        assert code == 2
        assert out == ""
        assert err == "error: condition (ii) fails for (b,c,d)=(0,1,1)\n"

    @pytest.mark.parametrize("bits", ["0", "-3"])
    def test_bits_below_one_is_usage_error(self, monkeypatch, capsys, bits):
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        code, out, err = run_cli(capsys, "verify", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", bits)
        assert code == 2
        assert out == ""
        assert err == "error: verify: --bits must be at least 1\n"


class TestSeeds:
    def test_family_json_flags_non_source(self, capsys):
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 8
        assert payload["parity_rule"] is False
        flags = {m["d"]: m["source"] for m in payload["members"]}
        assert flags[-8] is False
        assert all(flags[d] for d in range(-1, -8, -1))

    def test_invalid_shape_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seeds", "--b", "5", "--c", "2")
        assert code == 2
        assert "exceeds" in err

    def test_gaps_and_audit(self, capsys):
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "101",
                               "--gaps", "--precision", "64",
                               "--audit-mergers", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["gaps"]["count"] == 100
        assert payload["gaps"]["max_deviation"] < 3 / 101
        assert payload["merger_audit"]["passed"] is True

    @pytest.mark.parametrize("flag, message", [
        ("--audit-mergers", "horizon must be at least 1"),
        ("--distinctness", "factor_bound must be at least 2")],
        ids=["audit-mergers", "distinctness"])
    def test_zero_audit_argument_is_usage_error(self, capsys, flag, message):
        code, out, err = run_cli(capsys, "seeds", "--b", "0", "--c", "5",
                                 flag, "0")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_options_checked_before_the_gap_report(self, capsys, monkeypatch):
        def no_gaps(*args):
            raise AssertionError("gap_report ran before the option checks")
        monkeypatch.setattr(cli, "gap_report", no_gaps)
        for argv, message in [
                (["--precision", "4096", "--audit-mergers", "0"],
                 "horizon must be at least 1"),
                (["--distinctness", "1"], "factor_bound must be at least 2"),
                (["--precision", "31"], "precision must be at least 32 bits")]:
            code, out, err = run_cli(capsys, "seeds", "--b", "0", "--c",
                                     "1001", "--gaps", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"

    def test_distinctness_summary(self, capsys):
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "5",
                               "--distinctness", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["distinctness"]["pairs"] == 10
        assert payload["distinctness"]["distinct"] == 10
        assert payload["distinctness"]["unknown"] == []


class TestMt:
    def test_gen_writes_reference_words(self, tmp_path, capsys):
        out = tmp_path / "mt.bin"
        code, _, _ = run_cli(capsys, "mt", "gen", "--count", "1000",
                             "--out", str(out))
        assert code == 0
        assert np.array_equal(read_words_le(out), MT19937().generate(1000))

    def test_gen_negative_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mt.bin"
        code, _, err = run_cli(capsys, "mt", "gen", "--count", "-5",
                               "--out", str(out))
        assert code == 2
        assert "count must be nonnegative" in err
        assert not out.exists()

    def test_gen_zero_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mt.bin"
        code, stdout, err = run_cli(capsys, "mt", "gen", "--count", "0",
                                    "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == "error: mt gen: --count must be at least 1\n"
        assert not out.exists()

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "mt", "verify", "--count", "2000")
        assert code == 0
        assert "pass" in out

    def test_recover_matches_packaged_data(self, capsys):
        code, out, _ = run_cli(capsys, "mt", "recover", "--count", "1500")
        assert code == 0
        assert "match" in out

    def test_scan_mt_diagonal(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "mt", "scan", "--count", "20000",
                             "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "n,y_lag,y_n"
        assert len(rows) > 1
        for row in rows[1:]:
            _, y_lag, y_n = row.split(",")
            assert y_lag == y_n

    def test_scan_file_source(self, tmp_path, capsys):
        bits, _ = generate_bits(validate_triple(0, 1, -1), 700 * 32)
        words_path = tmp_path / "cubic.bin"
        write_words_le(words_path, bits.pack_words().words)
        code, out, _ = run_cli(capsys, "mt", "scan", "--source", "file",
                               "--in", str(words_path))
        assert code == 0
        assert out.startswith("n,y_lag,y_n")

    def test_scan_file_requires_in(self, capsys):
        code, _, err = run_cli(capsys, "mt", "scan", "--source", "file")
        assert code == 2
        assert "--in" in err


class TestStats:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--in", "/nonexistent.bin")
        assert code == 2
        assert "error" in err

    def test_all_zeros_fails(self, tmp_path, capsys):
        path = tmp_path / "zeros.raw"
        path.write_bytes(bytes(20000))
        code, out, _ = run_cli(capsys, "stats", "--in", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False

    def test_mt_words_pass(self, tmp_path, capsys):
        path = tmp_path / "mt.bin"
        write_words_le(path, MT19937().generate(8192))
        code, out, _ = run_cli(capsys, "stats", "--in", str(path),
                               "--format", "words32le")
        payload = json.loads(out)
        assert code == (0 if payload["all_passed"] else 1)
        assert len(payload["reports"]) == 9
