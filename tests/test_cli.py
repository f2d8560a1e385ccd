import ast
import concurrent.futures
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cubicorbit import (BitStream, MT19937, ConditionViolation, OrbitState,
                        OutputFormat, SeedSet, generate_bits, jump, step,
                        validate_triple)
from cubicorbit import cli, orbit
from cubicorbit.bitstream import (read_bits, read_words_le, write_bits,
                                  write_words_le)
from cubicorbit.cli import main
from conftest import bisect_prefix, de_bruijn, one_shot_bytes


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

    def test_single_stream_needs_the_whole_triple(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--bits", "8",
                                 "--format", "ascii")
        assert (code, out) == (2, "")
        assert err == ("error: generate: --b, --c and --d are required unless "
                       "--resume or --seed-set is given\n")

    @pytest.mark.parametrize("seed_set", ["0", "0,x", "0,1,2"])
    def test_seed_set_wants_two_integers(self, tmp_path, capsys, seed_set):
        out_file = tmp_path / "f.raw"
        code, out, err = run_cli(capsys, "generate", "--seed-set", seed_set,
                                 "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err == ("error: generate: --seed-set wants 'B,C', "
                       f"got {seed_set!r}\n")
        assert not out_file.exists()

    def test_resume_rejects_a_negative_step(self, tmp_path, capsys):
        ck = tmp_path / "ck.txt"
        text = OrbitState(validate_triple(0, 1, -1), 0).to_text()
        ck.write_text(text.replace("step 0", "step -1"))
        out_file = tmp_path / "bits.txt"
        code, out, err = run_cli(capsys, "generate", "--resume", str(ck),
                                 "--bits", "8", "--format", "ascii",
                                 "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err == "error: step index must be nonnegative\n"
        assert not out_file.exists()

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
        assert np.array_equal(read_words_le(out), expect.pack_words())

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

    @pytest.mark.parametrize("given, named", [
        (["--b", "5", "--c", "9", "--d", "-2"], "--b, --c, --d"),
        (["--c", "9"], "--c")], ids=["triple", "c"])
    def test_resume_rejects_triple_options(self, tmp_path, capsys,
                                           monkeypatch, given, named):
        ck = tmp_path / "ck.txt"
        ck.write_text(OrbitState(validate_triple(0, 1, -1), 8).to_text())
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file, ck2 = tmp_path / "bits.txt", tmp_path / "ck2.txt"
        for where in (["--format", "ascii"],
                      ["--out", str(out_file), "--checkpoint", str(ck2)]):
            code, out, err = run_cli(capsys, "generate", "--resume", str(ck),
                                     *given, "--bits", "8", *where)
            assert code == 2
            assert out == ""
            assert err == f"error: generate: --resume does not take {named}\n"
        assert not out_file.exists() and not ck2.exists()

    @pytest.mark.parametrize("extra, key", [
        ("b 5", "b"), ("step 40", "step"), ("seed 7", "seed")],
        ids=["repeated-b", "repeated-step", "unknown"])
    def test_resume_rejects_repeated_or_unknown_fields(self, tmp_path, capsys,
                                                       monkeypatch, extra, key):
        # a second b line once resumed from (5, c, d) and exited 0
        ck = tmp_path / "ck.txt"
        text = generate_bits(validate_triple(0, 1, -1), 40)[1].to_text()
        ck.write_text(text.replace("step", f"{extra}\nstep"))
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file, ck2 = tmp_path / "bits.txt", tmp_path / "ck2.txt"
        code, out, err = run_cli(capsys, "generate", "--resume", str(ck),
                                 "--bits", "64", "--format", "ascii",
                                 "--out", str(out_file), "--checkpoint", str(ck2))
        assert code == 2
        assert out == ""
        assert err == f"error: orbit state has an unknown or repeated field {key!r}\n"
        assert not out_file.exists() and not ck2.exists()

    def test_resume_from_a_file_that_is_not_utf8_names_it(self, tmp_path,
                                                           capsys, monkeypatch):
        ck = tmp_path / "ck.txt"
        ck.write_bytes(b"\xff" + OrbitState(validate_triple(0, 1, -1), 8)
                       .to_text().encode())
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file = tmp_path / "bits.txt"
        code, out, err = run_cli(capsys, "generate", "--resume", str(ck),
                                 "--bits", "8", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {ck} as an orbit state (--resume): "
                       f"it is not UTF-8 text ('utf-8' codec can't decode byte "
                       f"0xff in position 0: invalid start byte)\n")
        assert not out_file.exists()

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
        # byte-aligned members, then members of 97, 99, 45 and 40 bits, which
        # the writer must carry into place, in every format the total allows;
        # each file is compared with the joined stream written at once
        units = {"raw": 8, "words32le": 32}
        for c, per_seed, drop in ((3, 64, 8), (8, 100, 3), (8, 100, 1),
                                  (5, 45, 0), (4, 48, 8)):
            n = per_seed - drop
            ds = range(-1, -c - 1, -1)
            want = BitStream.from_bits([])
            for d in ds:
                bits, _ = generate_bits(validate_triple(0, c, d), per_seed)
                want = want + bits[drop:]
            for i, d in enumerate(ds):  # each member against the bisection
                whole = bisect_prefix(validate_triple(0, c, d), per_seed)
                assert want[i * n:(i + 1) * n].value == whole % (1 << n), d
            family = ["generate", "--seed-set", f"0,{c}",
                      "--per-seed-bits", str(per_seed),
                      "--drop-prefix-bits", str(drop)]
            for fmt in (f.value for f in OutputFormat):
                if len(want) % units.get(fmt, 1):
                    continue
                for jobs in ("1", "2"):
                    out = tmp_path / f"fam_{c}_{n}_{jobs}.{fmt}"
                    code, _, _ = run_cli(capsys, *family, "--jobs", jobs,
                                         "--format", fmt, "--out", str(out))
                    assert code == 0
                    assert out.read_bytes() == one_shot_bytes(want, fmt), (c, n, fmt)
                    if fmt != "csv":
                        assert read_bits(out, OutputFormat(fmt)) == want
            code, out, _ = run_cli(capsys, *family, "--format", "ascii")
            assert (code, out) == (0, want.to01() + "\n")

    def test_seed_set_failure_leaves_the_old_file(self, tmp_path, capsys,
                                                  monkeypatch):
        # a member that fails after two were written: no partial file, the
        # file from before intact, and no temp file left beside it
        worker = cli._worker_generate
        seen = []

        def third_fails(job):
            seen.append(job)
            if len(seen) == 3:
                raise ValueError("member 2 failed")
            return worker(job)
        monkeypatch.setattr(cli, "_worker_generate", third_fails)
        for fmt in ("raw", "words32le", "ascii", "csv", "json"):
            seen.clear()
            out = tmp_path / f"fam.{fmt}"
            out.write_bytes(b"from before")
            code, stdout, err = run_cli(capsys, "generate", "--seed-set", "0,5",
                                        "--per-seed-bits", "64",
                                        "--drop-prefix-bits", "0", "--jobs", "1",
                                        "--format", fmt, "--out", str(out))
            assert (code, stdout, err) == (2, "", "error: member 2 failed\n")
            assert len(seen) == 3
            assert out.read_bytes() == b"from before"
            assert sorted(p.name for p in tmp_path.iterdir()) == [f"fam.{fmt}"]
            out.unlink()

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        args = ["generate", "--seed-set", "0,3", "--per-seed-bits", "64",
                "--drop-prefix-bits", "8"]
        regular = tmp_path / "fam.raw"
        assert run_cli(capsys, *args, "--out", str(regular))[0] == 0
        fifo = tmp_path / "fam.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code, _, err = run_cli(capsys, *args, "--out", str(fifo))
        reader.join(timeout=10)
        assert (code, err) == (0, "")
        assert not reader.is_alive()
        assert got == [regular.read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.fifo", "fam.raw"]

    def test_checkpoint_is_replaced_only_on_success(self, tmp_path, capsys,
                                                    monkeypatch):
        ck = tmp_path / "ck.txt"
        ck.write_text("from before")

        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "40", "--format",
                                 "ascii", "--checkpoint", str(ck))
        assert code == 2
        assert out == generate_bits(validate_triple(0, 1, -1), 40)[0].to01() + "\n"
        assert err == "error: replace refused\n"
        assert ck.read_text() == "from before"
        assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]

    def test_replaced_output_keeps_its_mode(self, tmp_path, capsys):
        out, ck = tmp_path / "bits.raw", tmp_path / "ck.txt"
        fresh, fresh_ck = tmp_path / "fresh.raw", tmp_path / "fresh_ck.txt"
        for path in (out, ck):
            path.write_bytes(b"from before")
            path.chmod(0o600)
        umask = os.umask(0o022)
        try:
            for o, c in ((out, ck), (fresh, fresh_ck)):
                code, _, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                       "--d", "-1", "--bits", "16", "--out", str(o),
                                       "--checkpoint", str(c))
                assert (code, err) == (0, "")
        finally:
            os.umask(umask)
        want = generate_bits(validate_triple(0, 1, -1), 16)
        for path, mode in ((out, 0o600), (ck, 0o600),
                           (fresh, 0o644), (fresh_ck, 0o644)):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name
        assert out.read_bytes() == fresh.read_bytes() == want[0].to_bytes()
        assert ck.read_text() == fresh_ck.read_text() == want[1].to_text()

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

    def test_seed_set_members_are_validated_once(self, tmp_path, capsys,
                                                 monkeypatch):
        # build_seed_set validates the members; the jobs take them as built
        def no_revalidation(*args):
            raise AssertionError("a member was validated again")
        monkeypatch.setattr(cli, "validate_triple", no_revalidation)
        out = tmp_path / "f.raw"
        code, _, err = run_cli(capsys, "generate", "--seed-set", "0,4",
                               "--per-seed-bits", "64", "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_bytes() == b"".join(
            generate_bits(validate_triple(0, 4, d), 64)[0][32:].to_bytes()
            for d in (-1, -2, -3, -4))

    def test_seed_set_generates_each_member_once(self, tmp_path, capsys,
                                                 monkeypatch):
        # one cli.generate_bits call per member, with the member's bit count
        calls, real = [], cli.generate_bits
        monkeypatch.setattr(cli, "generate_bits", lambda t, n: calls.append(
            ((t.b, t.c, t.d), n)) or real(t, n))
        out = tmp_path / "f.raw"
        code, _, err = run_cli(capsys, "generate", "--seed-set", "0,7",
                               "--per-seed-bits", "72", "--drop-prefix-bits",
                               "8", "--jobs", "1", "--out", str(out))
        assert (code, err) == (0, "")
        assert calls == [((0, 7, d), 72) for d in range(-1, -8, -1)]

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

    @pytest.mark.parametrize("argv, n_bits", [
        (["--b", "0", "--c", "1", "--d", "-1", "--bits", "12"], 12),
        (["--b", "0", "--c", "1", "--d", "-1", "--bits", "1"], 1),
        (["--seed-set", "0,7", "--per-seed-bits", "100"], 476)],
        ids=["bits-12", "bits-1", "seed-set"])
    def test_raw_needs_whole_bytes(self, tmp_path, capsys, monkeypatch,
                                   argv, n_bits):
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file, ck = tmp_path / "b.raw", tmp_path / "ck.txt"
        extra = [] if "--seed-set" in argv else ["--checkpoint", str(ck)]
        for fmt in (["--format", "raw"], []):  # raw is the default
            code, out, err = run_cli(capsys, "generate", *argv, *extra, *fmt,
                                     "--out", str(out_file))
            assert code == 2
            assert out == ""
            assert err == (f"error: generate: --format raw writes whole bytes, "
                           f"but {n_bits} bits is not a multiple of 8\n")
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
        assert np.array_equal(read_words_le(out), want.pack_words())

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
        assert repr(str(tmp_path / "missing" / "x.raw")) in err  # not a temp file
        assert not ck.exists()

    def test_checkpoint_directory_missing_fails_before_the_output(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file, ck = tmp_path / "ok.raw", tmp_path / "missing" / "ck.txt"
        out_file.write_bytes(b"from before")
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "64", "--checkpoint",
                                 str(ck), "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(ck)) in err  # not a temp file
        assert out_file.read_bytes() == b"from before"
        assert [p.name for p in tmp_path.iterdir()] == ["ok.raw"]

    @pytest.mark.parametrize("given, named", [
        (["--jobs", "4"], "--jobs"),
        (["--drop-prefix-bits", "0"], "--drop-prefix-bits"),
        (["--jobs", "1", "--drop-prefix-bits", "7", "--per-seed-bits", "5"],
         "--per-seed-bits, --drop-prefix-bits, --jobs")],
        ids=["jobs", "drop-0", "all-three"])
    def test_single_stream_rejects_seed_set_options(self, tmp_path, capsys,
                                                    monkeypatch, given, named):
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        out_file, ck = tmp_path / "f.raw", tmp_path / "ck.txt"
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "8", *given,
                                 "--checkpoint", str(ck), "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == f"error: generate: only --seed-set takes {named}\n"
        assert not out_file.exists() and not ck.exists()

    def test_csv_and_json_formats(self, tmp_path, capsys):
        src = ["generate", "--b", "0", "--c", "1", "--d", "-1", "--bits", "8"]
        csv_file, json_file = tmp_path / "b.csv", tmp_path / "b.json"
        assert run_cli(capsys, *src, "--format", "csv",
                       "--out", str(csv_file))[0] == 0
        assert run_cli(capsys, *src, "--format", "json",
                       "--out", str(json_file))[0] == 0
        assert csv_file.read_text() == \
            "n,bit\n0,1\n1,0\n2,1\n3,0\n4,1\n5,1\n6,1\n7,0\n"
        assert json_file.read_text() == '{"length": 8, "bits": "10101110"}'
        assert read_bits(json_file, OutputFormat.JSON).to01() == "10101110"
        with pytest.raises(ValueError):
            read_bits(csv_file, OutputFormat.CSV)

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

    @pytest.mark.parametrize("cpus, workers", [(2, [2]), (1, []), (None, [])],
                             ids=["two-cpus", "one-cpu", "unknown"])
    def test_jobs_capped_at_the_cpu_count(self, tmp_path, capsys, monkeypatch,
                                          cpus, workers):
        asked, chunks = [], []

        class InProcessPool:  # records the pool size, forks nothing
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                chunks.append(chunksize)
                return map(fn, jobs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        family = ["generate", "--seed-set", "0,40", "--per-seed-bits", "64"]
        serial, wide = tmp_path / "serial.raw", tmp_path / "wide.raw"
        assert run_cli(capsys, *family, "--jobs", "1",
                       "--out", str(serial))[0] == 0
        assert asked == []
        assert run_cli(capsys, *family, "--jobs", "64",
                       "--out", str(wide))[0] == 0
        assert asked == workers
        # 40 members in chunks of 40 / (4 * 2), not of 40 / (4 * 64)
        assert chunks == [5] * len(workers)
        assert wide.read_bytes() == serial.read_bytes()

    def test_out_and_checkpoint_must_differ(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(cli, "generate_bits", None)  # no work may start
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "generate", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "64", "--out",
                                 "same.bin", "--checkpoint",
                                 str(tmp_path / "." / "same.bin"))
        assert code == 2
        assert out == ""
        assert err == ("error: generate: --out and --checkpoint name "
                       "the same file\n")
        assert list(tmp_path.iterdir()) == []

    def test_resume_may_overwrite_its_checkpoint(self, tmp_path, capsys):
        ck, out_file = tmp_path / "ck.txt", tmp_path / "tail.raw"
        src = ["generate", "--bits", "64", "--out", str(out_file)]
        assert run_cli(capsys, *src, "--b", "0", "--c", "1", "--d", "-1",
                       "--checkpoint", str(ck))[0] == 0
        assert run_cli(capsys, *src, "--resume", str(ck),
                       "--checkpoint", str(ck))[0] == 0
        assert OrbitState.from_text(ck.read_text()).step_index == 128
        whole, _ = generate_bits(validate_triple(0, 1, -1), 128)
        assert read_bits(out_file, OutputFormat.RAW_PACKED_BITS) == whole[64:]


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
        monkeypatch.setattr(cli, "generate_bits", corrupt)
        code, out, err = run_cli(capsys, "verify", "--b", "0", "--c", "1",
                                 "--d", "-1", "--bits", "16")
        assert code == 2
        assert out == ""
        assert err == "error: condition (ii) fails for (b,c,d)=(0,1,1)\n"

    def test_wrong_bit_fails_with_first_mismatch(self, monkeypatch, capsys):
        # the first, a middle and the last bit: the last is where an
        # off-by-one in the bit_length index would show
        for bad in (0, 5, 15):
            def flipped(t, n):
                bits, state = generate_bits(t, n)
                raw = np.unpackbits(bits.packed, count=len(bits))
                raw[bad] ^= 1
                return BitStream.from_bits(raw), state
            monkeypatch.setattr(cli, "generate_bits", flipped)
            code, out, err = run_cli(capsys, "verify", "--b", "0", "--c", "1",
                                     "--d", "-1", "--bits", "16")
            assert code == 1
            assert out == f"fail: first mismatch at bit {bad}\n"
            assert err == ""

    def test_pass_runs_the_jump_once(self, monkeypatch, capsys):
        calls = []

        def counted(t, n):
            calls.append(n)
            return jump(t, n)
        monkeypatch.setattr(orbit, "jump", counted)
        code, out, _ = run_cli(capsys, "verify", "--b", "0", "--c", "1",
                               "--d", "-1", "--bits", "512")
        assert code == 0
        assert out == "pass: 512 bits of (0,1,-1) match the root expansion\n"
        assert calls == [512]

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

    def test_family_without_d_values_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "seeds", "--b", "-2", "--c", "2")
        assert (code, out) == (2, "")
        assert err == "error: b + c = 0 < 1 leaves no d values\n"

    def test_merger_exits_1_with_the_collision(self, capsys, monkeypatch):
        # build_seed_set never makes such a family (see merger_audit), so
        # the collision path is reached with a hand-built one
        t = validate_triple(0, 1, -1)
        monkeypatch.setattr(cli, "build_seed_set",
                            lambda b, c: SeedSet(0, 1, (t, step(t)[0])))
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "1",
                               "--audit-mergers", "5")
        assert code == 1
        assert json.loads(out)["merger_audit"] == {
            "horizon": 5, "passed": False, "states_checked": 2,
            "collision": {"member_a": 1, "step_a": 0,
                          "member_b": 0, "step_b": 1}}

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

    @pytest.mark.parametrize("precision", ["10", "64"])
    def test_precision_needs_gaps(self, capsys, monkeypatch, precision):
        monkeypatch.setattr(cli, "build_seed_set", None)  # no work may start
        code, out, err = run_cli(capsys, "seeds", "--b", "0", "--c", "5",
                                 "--precision", precision)
        assert code == 2
        assert out == ""
        assert err == "error: seeds: --precision needs --gaps\n"

    def test_gaps_precision_defaults_to_64(self, capsys):
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "5", "--gaps")
        assert code == 0
        assert json.loads(out)["gaps"]["precision"] == 64

    def test_family_stdout_is_pinned(self, capsys):
        # the paper's family with 64-bit gaps: every byte, floats included
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "1001",
                               "--gaps", "--precision", "64",
                               "--audit-mergers", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "41f22990c332c164bb06a31d22baef1e54999bed06f16efd0ac6b4e77f5679cf")

    def test_distinctness_summary(self, capsys):
        code, out, _ = run_cli(capsys, "seeds", "--b", "0", "--c", "5",
                               "--distinctness", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["distinctness"]["pairs"] == 10
        assert payload["distinctness"]["distinct"] == 10
        assert payload["distinctness"]["uncertified"] == []
        assert payload["distinctness"]["equal_kernels"] == []
        assert "unknown" not in payload["distinctness"]


class TestMt:
    def test_gen_writes_reference_words(self, tmp_path, capsys):
        out = tmp_path / "mt.bin"
        code, _, _ = run_cli(capsys, "mt", "gen", "--count", "1000",
                             "--out", str(out))
        assert code == 0
        assert np.array_equal(read_words_le(out), MT19937().generate(1000))

    @staticmethod
    def _count_rejected(tmp_path, capsys, count):
        # one message for every count below 1, and no file
        out = tmp_path / "mt.bin"
        code, stdout, err = run_cli(capsys, "mt", "gen", "--count", count,
                                    "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == "error: mt gen: --count must be at least 1\n"
        assert not out.exists()

    def test_gen_negative_count_is_usage_error(self, tmp_path, capsys):
        for count in ("-3", "-5"):
            self._count_rejected(tmp_path, capsys, count)

    def test_gen_zero_count_is_usage_error(self, tmp_path, capsys):
        self._count_rejected(tmp_path, capsys, "0")

    @pytest.mark.parametrize("count", ["-3", "0", "624"])
    @pytest.mark.parametrize("cmd", ["verify", "recover", "scan"])
    def test_analysis_count_below_625_is_usage_error(self, capsys, monkeypatch,
                                                     cmd, count):
        # one message that names the command and the flag; no words drawn
        monkeypatch.setattr(cli, "MT19937", None)
        code, stdout, err = run_cli(capsys, "mt", cmd, "--count", count)
        assert (code, stdout) == (2, "")
        assert err == f"error: mt {cmd}: --count must be at least 625\n"

    def test_verify_at_625_checks_one_index(self, capsys):
        code, out, _ = run_cli(capsys, "mt", "verify", "--count", "625")
        assert code == 0
        assert out == "pass: recurrence holds at all 1 checkable indices\n"

    @pytest.mark.parametrize("argv", [["gen", "--count", "1000"],
                                      ["scan", "--count", "20000"]],
                             ids=["gen", "scan"])
    def test_out_is_replaced_only_on_success(self, tmp_path, capsys,
                                             monkeypatch, argv):
        out = tmp_path / "out"
        out.write_text("from before")

        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        code, stdout, err = run_cli(capsys, "mt", *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: replace refused\n"
        assert out.read_text() == "from before"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "mt", "verify", "--count", "2000")
        assert code == 0
        assert "pass" in out

    @staticmethod
    def _flip_last_word(monkeypatch):
        class LastWordFlipped(MT19937):
            def generate(self, count):
                words = super().generate(count)
                words[-1] ^= 1
                return words
        monkeypatch.setattr(cli, "MT19937", LastWordFlipped)

    def test_verify_fails_at_a_flipped_word(self, capsys, monkeypatch):
        self._flip_last_word(monkeypatch)
        code, out, _ = run_cli(capsys, "mt", "verify", "--count", "10000")
        assert code == 1
        assert out == "fail: first violation at n=9999\n"

    def test_recover_fails_on_held_out_data(self, capsys, monkeypatch):
        # the matrices are solved from the first ~700 words; the flipped
        # last word fails the held-out check
        self._flip_last_word(monkeypatch)
        code, out, _ = run_cli(capsys, "mt", "recover", "--count", "10000")
        assert code == 1
        assert out == ("fail: recovered matrices match the packaged data but "
                       "the recurrence fails at n=9999\n")

    def test_recover_fails_when_the_matrices_differ(self, capsys, monkeypatch):
        # A and B swapped: the matrices differ, whatever the held-out check
        real = cli.recover_matrices
        monkeypatch.setattr(cli, "recover_matrices",
                            lambda words: real(words)[::-1])
        code, out, _ = run_cli(capsys, "mt", "recover", "--count", "2000")
        assert code == 1
        assert out == "fail: recovered matrices differ from the packaged data\n"

    def test_recover_matches_packaged_data(self, capsys):
        code, out, _ = run_cli(capsys, "mt", "recover", "--count", "1500")
        assert code == 0
        assert "match" in out

    @pytest.mark.parametrize("count", ["625", "650"])
    def test_recover_rank_deficient_count_is_usage_error(self, capsys, count):
        # at least 625 words, but too few to reach rank 64
        code, stdout, err = run_cli(capsys, "mt", "recover", "--count", count)
        assert (code, stdout) == (2, "")
        assert err == (f"error: mt recover: --count {count} gives a "
                       "rank-deficient system; more words are needed\n")

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
        write_words_le(words_path, bits.pack_words())
        code, out, _ = run_cli(capsys, "mt", "scan", "--source", "file",
                               "--in", str(words_path))
        assert code == 0
        assert out.startswith("n,y_lag,y_n")

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_gen_seed_outside_32_bits_is_usage_error(self, tmp_path, capsys,
                                                     seed):
        out = tmp_path / "mt.bin"
        code, stdout, err = run_cli(capsys, "mt", "gen", "--seed", seed,
                                    "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_scan_in_needs_file_source(self, tmp_path, capsys, monkeypatch):
        words_path, csv_path = tmp_path / "w.bin", tmp_path / "scan.csv"
        write_words_le(words_path, MT19937(7).generate(1000))
        monkeypatch.setattr(cli, "MT19937", None)  # no work may start
        code, out, err = run_cli(capsys, "mt", "scan", "--in", str(words_path),
                                 "--out", str(csv_path))
        assert code == 2
        assert out == ""
        assert err == "error: mt scan: --in needs --source file\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("given, named", [
        (["--count", "5", "--seed", "9"], "--seed, --count"),
        (["--seed", "9"], "--seed"),
        (["--count", "10000"], "--count")], ids=["both", "seed", "count"])
    def test_scan_file_rejects_seed_and_count(self, tmp_path, capsys,
                                              monkeypatch, given, named):
        words_path, csv_path = tmp_path / "w.bin", tmp_path / "scan.csv"
        write_words_le(words_path, MT19937(7).generate(1000))
        monkeypatch.setattr(cli, "read_words_le", None)  # the file is not read
        code, out, err = run_cli(capsys, "mt", "scan", "--source", "file",
                                 "--in", str(words_path), *given,
                                 "--out", str(csv_path))
        assert code == 2
        assert out == ""
        assert err == f"error: mt scan: --source file does not take {named}\n"
        assert not csv_path.exists()

    def test_scan_help_names_the_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["mt", "scan", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "(default 10000)" in out and "(default 5489)" in out

    def test_scan_file_requires_in(self, capsys):
        code, _, err = run_cli(capsys, "mt", "scan", "--source", "file")
        assert code == 2
        assert "--in" in err

    def test_scan_file_with_partial_word_is_usage_error(self, tmp_path, capsys):
        # 2000 words and 3 bytes: the partial word used to be dropped
        words_path, csv_path = tmp_path / "w.bin", tmp_path / "scan.csv"
        write_words_le(words_path, MT19937().generate(2000))
        with open(words_path, "ab") as fh:
            fh.write(b"abc")
        code, out, err = run_cli(capsys, "mt", "scan", "--source", "file",
                                 "--in", str(words_path), "--out", str(csv_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "8003 bytes" in err
        assert not csv_path.exists()


class TestStats:
    def test_words_file_with_partial_word_is_usage_error(self, tmp_path, capsys):
        # 64000 bits and one byte: the partial word used to be dropped
        path = tmp_path / "words.bin"
        write_words_le(path, MT19937().generate(2000))
        with open(path, "ab") as fh:
            fh.write(b"\x01")
        code, out, err = run_cli(capsys, "stats", "--in", str(path),
                                 "--format", "words32le")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "8001 bytes" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--in", "/nonexistent.bin")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("alpha", ["-1", "0", "1", "1.5", "nan"])
    def test_alpha_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch, alpha):
        path = tmp_path / "zeros.raw"
        path.write_bytes(bytes(12500))
        monkeypatch.setattr(cli, "read_bits", None)  # no work may start
        code, out, err = run_cli(capsys, "stats", "--in", str(path),
                                 "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert err == "error: stats: --alpha must be between 0 and 1\n"

    def test_all_zeros_fails(self, tmp_path, capsys):
        path = tmp_path / "zeros.raw"
        path.write_bytes(bytes(20000))
        code, out, _ = run_cli(capsys, "stats", "--in", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False

    def test_equally_frequent_windows_fail_without_an_error(self, tmp_path,
                                                             capsys):
        # 2^20 bits whose cyclic 11-bit windows are all equally frequent:
        # approximate entropy's chi2 is exactly 0, which used to abort the
        # run with a NaN P-value and exit 2
        path = tmp_path / "debruijn.raw"
        path.write_bytes(BitStream.from01(de_bruijn(11) * 512).to_bytes())
        code, out, err = run_cli(capsys, "stats", "--in", str(path))
        assert (code, err) == (1, "")
        reports = {r["name"]: r for r in json.loads(out)["reports"]}
        apen = reports["approximate_entropy"]
        assert (apen["statistic"], apen["p_value"]) == (0.0, 1.0)
        assert apen["passed"]
        assert apen["parameters"] == {"m": 10}
        assert sorted(n for n, r in reports.items() if not r["passed"]) == [
            "block_frequency", "longest_run", "serial_1", "serial_2"]

    def test_json_file_reads_like_raw(self, tmp_path, capsys):
        s = BitStream.from_words(MT19937().generate(1024))
        raw, doc = tmp_path / "bits.raw", tmp_path / "bits.json"
        write_bits(raw, [s], OutputFormat.RAW_PACKED_BITS, len(s))
        write_bits(doc, [s], OutputFormat.JSON, len(s))
        from_raw = run_cli(capsys, "stats", "--in", str(raw))
        from_json = run_cli(capsys, "stats", "--in", str(doc), "--format", "json")
        assert from_json == from_raw
        assert len(json.loads(from_json[1])["reports"]) == 9

    @pytest.mark.parametrize("fmt", ["ascii", "json"])
    def test_file_that_is_not_utf8_names_itself(self, tmp_path, capsys, fmt):
        path = tmp_path / "bits.txt"
        path.write_bytes(b"\x8c" + b"01" * 600)
        code, out, err = run_cli(capsys, "stats", "--in", str(path),
                                 "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {path} as --format {fmt}: it is "
                       f"not UTF-8 text ('utf-8' codec can't decode byte 0x8c "
                       f"in position 0: invalid start byte)\n")

    def test_json_file_with_a_wrong_length_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bits.json"
        path.write_text(json.dumps({"length": 2047, "bits": "01" * 1024}))
        code, out, err = run_cli(capsys, "stats", "--in", str(path),
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "claims length 2047" in err

    def test_packs_the_file_once_and_never_unpacks(self, tmp_path, capsys,
                                                   monkeypatch):
        path = tmp_path / "mt.bin"
        write_words_le(path, MT19937().generate(2048))
        streams, packs = [], []
        run_suite, to_bytes = cli.run_suite, BitStream.to_bytes
        monkeypatch.setattr(cli, "run_suite", lambda s, alpha:
                            streams.append(s) or run_suite(s, alpha))
        monkeypatch.setattr(BitStream, "to_bytes",
                            lambda s: packs.append(1) or to_bytes(s))
        run_cli(capsys, "stats", "--in", str(path), "--format", "words32le")
        assert len(packs) == 1
        assert "bits" not in vars(streams[0])

    def test_mt_words_pass(self, tmp_path, capsys):
        path = tmp_path / "mt.bin"
        write_words_le(path, MT19937().generate(8192))
        code, out, _ = run_cli(capsys, "stats", "--in", str(path),
                               "--format", "words32le")
        payload = json.loads(out)
        assert code == (0 if payload["all_passed"] else 1)
        assert len(payload["reports"]) == 9


class TestIndentedJson:
    """cli._indented_json is json.dumps(obj, indent=2), byte for byte."""

    @pytest.mark.parametrize("obj", [
        True, False, None, 1, 0, "x", 2.5,
        [True, 1, False, 0, None], {"t": True, "one": 1, "f": False, "n": None},
        {}, [], {"a": {}, "b": []}, [[]], [{}],
        [{}, {"a": 1}], [{"a": 1}, {}], [{"a": 1, "b": 2}, {"a": 3, "b": 4}],
        [{"a": 1}, {"b": {"c": 2}}], [{"a": 1}, {"b": [2]}], [{"a": 1}, 2],
        [[1, 2], [3], []], {"x": [[1, [2, [3]]], {"y": ()}]}, (1, (2, 3)),
        ["}", "{", "],", '"', "\\", "a\nb", "\u00e9\u2603\U0001f600",
         "},\n    {"],
        {"}": "{", "],\n": "\\", "\u00e9": "\n"},
        [{"s": "},\n      {"}, {"s": "}"}, {"s": "{\n"}],
        {"s": ",\n  0", "n": [",\n    0", {"t": ",\n"}], "e": [{}]},
        [0.1, 1e-7, 1e16, 5e-324, -0.0, float("nan"), float("inf"),
         -float("inf"), 2 ** 64, 2 ** 64 + 1, -(2 ** 100)],
        {1: [2], 1.5: {"a": 1}, True: [], None: 0, "k": {2: 3, False: 4}},
    ])
    def test_equals_json_dumps(self, obj):
        assert cli._indented_json(obj) == json.dumps(obj, indent=2)

    def test_rejects_what_json_dumps_rejects(self):
        for obj in ({"a": object()}, [{"a": 1}, {"b": object()}],
                    {"a": [1, object()]}, {(1, 2): 3}):
            with pytest.raises(TypeError):
                cli._indented_json(obj)

    @pytest.mark.parametrize("argv, code", [
        (["seeds", "--b", "0", "--c", "5"], 0),
        (["seeds", "--b", "0", "--c", "1", "--gaps"], 0),
        (["seeds", "--b", "0", "--c", "40", "--gaps", "--precision", "100"], 0),
        (["seeds", "--b", "0", "--c", "40", "--distinctness", "50"], 0),
        (["seeds", "--b", "0", "--c", "1", "--audit-mergers", "5"], 1),
        (["stats", "--in", "mt.bin", "--format", "words32le"], 0),
        (["stats", "--in", "zeros.raw"], 1),
    ], ids=["seeds", "no-gaps", "precision-100", "uncertified", "merger",
            "stats-pass", "stats-fail"])
    def test_cli_prints_json_dumps_text(self, tmp_path, capsys, monkeypatch,
                                        argv, code):
        write_words_le(tmp_path / "mt.bin", MT19937().generate(8192))
        (tmp_path / "zeros.raw").write_bytes(bytes(20000))
        argv = [str(tmp_path / a) if a.endswith((".bin", ".raw")) else a
                for a in argv]
        if "--audit-mergers" in argv:  # the collision of test_merger_exits_1
            t = validate_triple(0, 1, -1)
            monkeypatch.setattr(cli, "build_seed_set",
                                lambda b, c: SeedSet(0, 1, (t, step(t)[0])))
        got = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_indented_json",
                            lambda obj: json.dumps(obj, indent=2))
        want = run_cli(capsys, *argv)
        assert got == want
        assert got[0] == code
        if argv[0] == "seeds" and "--distinctness" in argv:
            assert len(json.loads(got[1])["distinctness"]["uncertified"]) == 21


class TestParserReuse:
    """main() builds its parser once per process; reusing it keeps no state."""

    @staticmethod
    def _outcomes(capsys, calls, fresh):
        done = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # --help, --version and parse errors
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            done.append((code, captured.out, captured.err))
        return done

    @pytest.mark.parametrize("calls, last", [
        ([["generate", "--seed-set", "0,3", "--per-seed-bits", "8",
           "--drop-prefix-bits", "0", "--format", "ascii"],
          ["generate", "--b", "0", "--c", "1", "--d", "-1", "--bits", "8",
           "--format", "ascii"]], "10101110\n"),
        ([["verify", "--b", "0", "--c", "1", "--d", "-1", "--bits", "x"],
          ["mt", "verify", "--count", "0"],
          ["verify", "--b", "0", "--c", "1", "--d", "-1", "--bits", "64"]],
         "pass: 64 bits of (0,1,-1) match the root expansion\n"),
        ([["mt", "scan", "--help"], ["mt", "scan", "--count", "2000"]],
         "n,y_lag,y_n\n"),
        ([["--version"], ["verify", "--b", "0", "--c", "3", "--d", "-2"]],
         "pass: 256 bits of (0,3,-2) match the root expansion\n"),
    ], ids=["seed-set-then-single", "usage-errors-then-valid",
            "help-then-scan", "version-then-verify"])
    def test_reused_parser_answers_as_a_fresh_one(self, capsys, calls, last):
        reused = self._outcomes(capsys, calls, fresh=False)
        assert reused == self._outcomes(capsys, calls, fresh=True)
        code, out, _ = reused[-1]
        assert code == 0 and out.startswith(last)

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv in (["verify", "--b", "0", "--c", "1", "--d", "-1"],
                         ["mt", "verify", "--count", "625"],
                         ["verify", "--b", "0", "--c", "1", "--d", "-1"]):
                assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


def run_fresh_python(script: str, *args: str) -> str:
    """stdout of script run in a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_generate_and_verify_load_no_scipy(tmp_path):
    # in a fresh interpreter: scipy is imported only by a statistical test
    script = (
        "import sys\n"
        "from cubicorbit.cli import main\n"
        "src = ['--b', '0', '--c', '1', '--d', '-1', '--bits', '64']\n"
        "assert main(['generate', *src, '--out', sys.argv[1]]) == 0\n"
        "assert main(['verify', *src]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    out = run_fresh_python(script, str(tmp_path / "b.raw"))
    assert out.splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # the pool, and multiprocessing with it, is imported only for --jobs > 1
    out = run_fresh_python("import sys, cubicorbit.cli\n"
                           "print('concurrent.futures' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def perfbench_setup_code() -> str:
    """perfbench/run.py's SETUP_CODE, read from its source, src filled in."""
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "run.py").read_text())
    code = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "SETUP_CODE")
    return code.format(src=str(Path(cli.__file__).resolve().parents[1]))


def test_benchmark_setup_loads_no_numpy():
    # import the package, build the parser, load the recurrence matrices
    out = run_fresh_python(perfbench_setup_code()
                           + "\nprint('numpy' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_bit_commands_load_no_numpy(tmp_path):
    # in a fresh interpreter: numpy is imported only by code that builds arrays
    script = (
        "import sys\n"
        "from cubicorbit.cli import main\n"
        "out = sys.argv[1]\n"
        "src = ['--b', '0', '--c', '1', '--d', '-1', '--bits', '64']\n"
        "runs = [['generate', *src, '--format', f, '--out', f'{out}.{f}']\n"
        "        for f in ('raw', 'ascii', 'csv', 'json')]\n"
        "runs += [['generate', '--seed-set', '0,40', '--per-seed-bits', '64',\n"
        "          '--out', out + '.family'],\n"
        "         ['verify', *src],\n"
        "         ['seeds', '--b', '0', '--c', '40', '--gaps',\n"
        "          '--audit-mergers', '200', '--distinctness', '50']]\n"
        "loaded = []\n"
        "for argv in runs:\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n")
    out = run_fresh_python(script, str(tmp_path / "bits"))
    assert out.splitlines()[-1] == str([False] * 8)


@pytest.mark.parametrize("argv", [
    ["generate", "--b", "0", "--c", "1", "--d", "-1", "--bits", "4096",
     "--format", "words32le", "--out", "{out}/bits.words"],
    ["stats", "--in", "{src}/bits.raw"],
    ["stats", "--in", "{src}/bits.words", "--format", "words32le"],
    ["mt", "verify", "--count", "2000"],
    ["mt", "scan", "--count", "5000"],
    ["mt", "scan", "--count", "5000", "--out", "{out}/scan.csv"],
], ids=["generate-words32le", "stats-raw", "stats-words32le", "mt-verify",
        "mt-scan", "mt-scan-out"])
def test_array_commands_answer_alike_in_a_fresh_interpreter(tmp_path, capsys,
                                                            argv):
    # they import numpy on first use, and print and write the same either way
    bits = generate_bits(validate_triple(0, 1, -1), 4096)[0]
    (tmp_path / "bits.raw").write_bytes(bits.to_bytes())
    write_words_le(tmp_path / "bits.words", bits.pack_words())
    outcomes = []
    for side in ("fresh", "in-process"):
        out_dir = tmp_path / side
        out_dir.mkdir()
        args = [a.format(src=tmp_path, out=out_dir) for a in argv]
        if side == "fresh":
            out = run_fresh_python("import sys\n"
                                   "from cubicorbit.cli import main\n"
                                   "print(main(sys.argv[1:]))\n", *args)
        else:
            code = main(args)
            out = capsys.readouterr().out + f"{code}\n"
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        outcomes.append((out, files))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].splitlines()[-1] in ("0", "1")


class TestVersion:
    @staticmethod
    def version(capsys):
        cli._parser.cache_clear()  # the version line is set when it is built
        try:
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
        finally:
            cli._parser.cache_clear()
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_names_the_int_backend(self, capsys, monkeypatch):
        monkeypatch.setattr(orbit, "mpz", int)
        assert self.version(capsys) == "0.1.0 (int)\n"

    def test_names_the_gmpy2_backend(self, capsys, monkeypatch):
        class mpz(int):  # stands in for gmpy2.mpz
            pass
        monkeypatch.setattr(orbit, "mpz", mpz)
        assert self.version(capsys) == "0.1.0 (gmpy2.mpz)\n"
