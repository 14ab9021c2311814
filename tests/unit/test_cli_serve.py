"""Unit tests for the service CLI: job specs, serve/restore smoke runs."""

import os

import pytest

from repro import TrackingService, WindowedCountScheme
from repro.cli import build_parser, main, parse_job_spec


class TestParseJobSpec:
    def test_basic_spec(self):
        name, problem, scheme = parse_job_spec(
            "total=count/randomized:0.01", 0.5
        )
        assert name == "total"
        assert problem == "count"
        assert scheme.name == "count/randomized"
        assert scheme.epsilon == 0.01

    def test_default_epsilon_applies(self):
        _, _, scheme = parse_job_spec("hh=frequency/deterministic", 0.07)
        assert scheme.epsilon == 0.07

    def test_rank_spec(self):
        name, problem, scheme = parse_job_spec("p99=rank/cormode05:0.02", 0.5)
        assert (name, problem) == ("p99", "rank")
        assert scheme.name == "rank/cormode05"

    def test_window_spec(self):
        name, problem, scheme = parse_job_spec(
            "lastmin=window:60000/count:0.05", 0.5
        )
        assert (name, problem) == ("lastmin", "window")
        assert isinstance(scheme, WindowedCountScheme)
        assert scheme.window == 60_000
        assert scheme.epsilon == 0.05

    def test_window_spec_default_epsilon(self):
        _, _, scheme = parse_job_spec("w=window:500/count", 0.125)
        assert scheme.window == 500
        assert scheme.epsilon == 0.125

    @pytest.mark.parametrize(
        "bad",
        [
            "noequals",               # missing NAME=
            "=count/randomized",      # empty name
            "x=count",                # missing /SCHEME
            "x=count/",               # empty scheme
            "x=nosuch/randomized",    # unknown problem
            "x=count/nosuch",         # unknown scheme
            "x=count/randomized:abc", # non-numeric eps
            "x=count/randomized:1:2", # too many fields
            "x=window/count",         # window without a length
            "x=window:abc/count",     # non-integer window
            "x=window:100/nosuch",    # window scheme must be count
        ],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError, match="bad job spec"):
            parse_job_spec(bad, 0.1)

    def test_window_zero_rejected_by_scheme(self):
        with pytest.raises(ValueError):
            parse_job_spec("w=window:0/count", 0.1)


class TestServeCli:
    def test_parser_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.problem == "serve"
        assert args.batch == 8192
        assert args.checkpoint_dir is None
        assert not args.resume

    def test_serve_smoke_default_jobs(self, capsys):
        assert main(["serve", "-k", "4", "-n", "3000", "--batch", "512"]) == 0
        out = capsys.readouterr().out
        assert "count/randomized" in out
        assert "(fleet total)" in out
        assert "ingested 3,000 events" in out

    def test_serve_smoke_explicit_jobs(self, capsys):
        assert main([
            "serve", "-k", "3", "-n", "2000",
            "--job", "t=count/deterministic:0.1",
            "--job", "w=window:500/count:0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "window/count" in out
        assert "win:" in out  # window estimate rendered

    def test_serve_bad_job_spec_fails_cleanly(self, capsys):
        assert main(["serve", "--job", "broken"]) == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_serve_bad_batch_fails_cleanly(self, capsys):
        assert main(["serve", "--batch", "0"]) == 2
        assert "--batch" in capsys.readouterr().err

    def test_serve_resume_requires_checkpoint_dir(self, capsys):
        assert main(["serve", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_every_requires_checkpoint_dir(self, capsys):
        assert main(["serve", "--checkpoint-every", "100"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err


class TestDurableCli:
    def test_serve_checkpoint_then_restore(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main([
            "serve", "-k", "4", "-n", "3000", "--batch", "512",
            "--job", "t=count/randomized:0.05",
            "--checkpoint-dir", ckpt, "--checkpoint-every", "1000",
        ]) == 0
        serve_out = capsys.readouterr().out
        assert main(["restore", "--checkpoint-dir", ckpt]) == 0
        restore_out = capsys.readouterr().out
        assert "restored service" in restore_out
        assert "n=3,000" in restore_out
        # The recovered table reports the same ledger as the live run.
        serve_row = next(l for l in serve_out.splitlines() if " t " in l or l.strip().startswith("t "))
        restore_row = next(l for l in restore_out.splitlines() if l.strip().startswith("t "))
        assert serve_row.split("|")[2:] == restore_row.split("|")[2:]

    def test_serve_resume_matches_single_run(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        job = "t=count/randomized:0.05"
        # Interrupted: first 2000 events, then resume to 5000.
        assert main(["serve", "-k", "4", "-n", "2000", "--batch", "512",
                     "--job", job, "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(["serve", "-k", "4", "-n", "5000", "--batch", "512",
                     "--job", job, "--checkpoint-dir", ckpt, "--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "(resumed past 2,000)" in resumed_out
        # Uninterrupted reference run.
        assert main(["serve", "-k", "4", "-n", "5000", "--batch", "512",
                     "--job", job]) == 0
        straight_out = capsys.readouterr().out
        resumed_row = next(
            l for l in resumed_out.splitlines() if l.strip().startswith("t ")
        )
        straight_row = next(
            l for l in straight_out.splitlines() if l.strip().startswith("t ")
        )
        assert resumed_row == straight_row

    def test_resume_ignores_mismatched_seed_and_k_flags(self, tmp_path, capsys):
        # The stream is regenerated from the snapshot's seed/fleet size,
        # so resuming without the original --seed/-k must still
        # reproduce the uninterrupted run exactly.
        ckpt = str(tmp_path / "ckpt")
        job = "t=count/randomized:0.05"
        assert main(["serve", "-k", "4", "-n", "2000", "--seed", "42",
                     "--batch", "512", "--job", job,
                     "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        # Resume with default seed/k flags (forgotten on the CLI).
        assert main(["serve", "-n", "5000", "--batch", "512",
                     "--checkpoint-dir", ckpt, "--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert main(["serve", "-k", "4", "-n", "5000", "--seed", "42",
                     "--batch", "512", "--job", job]) == 0
        straight_out = capsys.readouterr().out
        resumed_row = next(
            l for l in resumed_out.splitlines() if l.strip().startswith("t ")
        )
        straight_row = next(
            l for l in straight_out.splitlines() if l.strip().startswith("t ")
        )
        assert resumed_row == straight_row

    def test_serve_refuses_a_dir_that_holds_state(self, tmp_path, capsys):
        # Without --resume, neither the facade's own layout nor a
        # single-service bundle is overwritten or shadowed by a new one.
        ckpt = str(tmp_path / "ckpt")
        assert main(["serve", "-n", "1000", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(["serve", "-n", "1000", "--checkpoint-dir", ckpt]) == 2
        assert "already holds state" in capsys.readouterr().err
        old = str(tmp_path / "old")
        TrackingService(num_sites=4, checkpoint_dir=old).close()
        assert main(["serve", "-n", "1000", "--checkpoint-dir", old]) == 2
        assert "already holds state" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(old, "shards.json"))

    def test_restore_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["restore", "--checkpoint-dir", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_resume_spec_clash_keeps_restored_scheme(self, tmp_path, capsys):
        # A --job spec whose name collides with a restored job must not
        # change that job's problem family (the status table would
        # otherwise dispatch the wrong query).
        ckpt = str(tmp_path / "ckpt")
        assert main(["serve", "-k", "4", "-n", "1000", "--batch", "512",
                     "--job", "c=count/randomized:0.05",
                     "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(["serve", "-n", "2000", "--batch", "512",
                     "--job", "c=rank/randomized:0.05",
                     "--checkpoint-dir", ckpt, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "count/randomized" in out  # restored scheme won
