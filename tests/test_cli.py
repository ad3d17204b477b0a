"""Command-line interface: ingestion, modes, outputs, and exit codes."""

import json
import math

import pytest

import burstopt as b
from burstopt import cli
from burstopt.errors import DomainError


def write(path, text):
    path.write_text(text)
    return str(path)


def read_levels(outdir):
    lines = (outdir / "levels.tsv").read_text().splitlines()
    assert lines[0] == "index\tlevel"
    return [int(line.split("\t")[1]) for line in lines[1:]]


def read_summary(outdir):
    return json.loads((outdir / "summary.json").read_text())


class TestIngest:
    def test_timestamps_to_delays(self, tmp_path):
        path = tmp_path / "ts.txt"
        write(path, "0 1 3 6\n")
        seq = cli.ingest(path, b.EXP, timestamps=True)
        assert seq.values == (1.0, 2.0, 3.0)

    def test_timestamp_granularity_minutes(self, tmp_path):
        path = tmp_path / "ts.txt"
        write(path, "0\n60\n180\n")
        seq = cli.ingest(path, b.EXP, timestamps=True, granularity="minutes")
        assert seq.values == (1.0, 2.0)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "ts.txt"
        write(path, "0 5 3\n")
        with pytest.raises(DomainError, match="decrease"):
            cli.ingest(path, b.EXP, timestamps=True)

    def test_single_timestamp_rejected(self, tmp_path):
        path = tmp_path / "ts.txt"
        write(path, "42\n")
        with pytest.raises(DomainError):
            cli.ingest(path, b.EXP, timestamps=True)

    def test_shift_applies_to_all_delays(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "0, 2\n")
        seq = cli.ingest(path, b.EXP, shift=1.0)
        assert seq.values == (1.0, 3.0)

    def test_exp_rejects_zero_delays_with_remedy_hint(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "1 0 2\n")
        with pytest.raises(DomainError, match="shift-delays"):
            cli.ingest(path, b.EXP)

    def test_geo_rounds_near_integers(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "1.0000000001 2\n")
        seq = cli.ingest(path, b.GEO)
        assert seq.values == (1.0, 2.0)
        assert seq.kind == "integer"

    def test_geo_rejects_fractional(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "1.3 2\n")
        with pytest.raises(DomainError, match="integer"):
            cli.ingest(path, b.GEO)

    @pytest.mark.parametrize("model", ["exp", "geo"])
    @pytest.mark.parametrize("token", ["inf", "nan", "1e400"])
    def test_non_finite_delay_rejected(self, tmp_path, model, token):
        # the geo model used to round the value first and fail with an OverflowError
        path = tmp_path / "d.txt"
        write(path, f"1 {token} 2\n")
        with pytest.raises(DomainError, match="finite"):
            cli.ingest(path, model)

    def test_negative_delay_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "1 -2\n")
        with pytest.raises(DomainError, match="negative"):
            cli.ingest(path, b.EXP)

    def test_bad_token_cites_line(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "1 2\nx 3\n")
        with pytest.raises(DomainError, match=":2:"):
            cli.ingest(path, b.EXP)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        write(path, "\n")
        with pytest.raises(DomainError, match="no numeric"):
            cli.ingest(path, b.EXP)


class TestSegments:
    def test_frozen_example(self):
        segs = cli.levels_to_segments([0, 0, 1, 1, 0])
        assert [(s.start, s.end, s.level) for s in segs] == [(0, 2, 0), (2, 4, 1), (4, 5, 0)]

    def test_tiles_without_gaps(self):
        import numpy as np
        rng = np.random.default_rng(80)
        for _ in range(20):
            levs = rng.integers(0, 3, int(rng.integers(1, 12))).tolist()
            segs = cli.levels_to_segments(levs)
            assert segs[0].start == 0 and segs[-1].end == len(levs)
            for a, c in zip(segs, segs[1:]):
                assert a.end == c.start
                assert a.level != c.level
            for seg in segs:
                assert set(levs[seg.start:seg.end]) == {seg.level}


class TestRunCommand:
    def test_fixed_mode_matches_library(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0.8 0.1 0.2 2.5 0.3\n")
        outdir = tmp_path / "out"
        code = cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--model", "exp", "--mode", "fixed", "--alpha", "2",
                         "--beta", "0.5", "--gamma", "0.4", "--k", "2"])
        assert code == 0
        seq = b.DelaySequence.from_values([0.8, 0.1, 0.2, 2.5, 0.3])
        sol = b.viterbi(seq, b.BurstParams(b.EXP, 2.0, 0.5, 0.4, 2))
        assert read_levels(outdir) == list(sol.levels)
        summary = read_summary(outdir)
        assert summary["score"] == pytest.approx(sol.score, rel=1e-11)
        assert summary["mode"] == "fixed"
        assert summary["n"] == 5

    def test_summary_round_trips_score(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0.8 0.1 0.2 2.5 0.3 1.9 0.05\n")
        outdir = tmp_path / "out"
        code = cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--mode", "opt-beta", "--k", "2", "--gamma", "0.7"])
        assert code == 0
        summary = read_summary(outdir)
        levels = read_levels(outdir)
        seq = b.DelaySequence.from_values([0.8, 0.1, 0.2, 2.5, 0.3, 1.9, 0.05])
        params = b.BurstParams(b.EXP, summary["alpha"], summary["beta"],
                               summary["gamma"], summary["k"])
        assert b.score_total(levels, seq, params) == pytest.approx(summary["score"], rel=1e-9)
        for key in ("mode", "model", "n", "alpha", "beta", "gamma", "k", "epsilon",
                    "score", "viterbi_calls", "runtime_ms"):
            assert key in summary

    def test_segments_file_consistent_with_levels(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0.5 0.5 0.1 0.1 0.9\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--mode", "opt-both", "--k", "1"]) == 0
        levels = read_levels(outdir)
        seg_lines = (outdir / "segments.tsv").read_text().splitlines()[1:]
        expanded = []
        for line in seg_lines:
            start, end, level = (int(tok) for tok in line.split("\t"))
            expanded.extend([level] * (end - start))
        assert expanded == levels

    def test_mean_mode_beta_values(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "1 3\n")
        out_exp = tmp_path / "exp"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(out_exp),
                         "--mode", "mean"]) == 0
        assert read_summary(out_exp)["beta"] == pytest.approx(0.5)
        out_geo = tmp_path / "geo"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(out_geo),
                         "--model", "geo", "--mode", "mean"]) == 0
        assert read_summary(out_geo)["beta"] == pytest.approx(2 / 3)

    def test_exact_mode_and_capacity_limit(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, " ".join(["1.5"] * 70))
        outdir = tmp_path / "out"
        code = cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--mode", "exact"])
        assert code == cli.EXIT_CAPACITY
        code = cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--mode", "exact", "--max-exact-n", "80"])
        assert code == 0
        summary = read_summary(outdir)
        # constant data: flat fit at beta = 1/1.5, score n(1 + log 1.5)
        assert summary["beta"] == pytest.approx(1 / 1.5, rel=1e-12)
        assert summary["score"] == pytest.approx(70 * (1 + math.log(1.5)), rel=1e-11)

    def test_exact_mode_rejects_geo(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "1 2 3\n")
        code = cli.main(["run", "--input", str(data), "--output-dir", str(tmp_path / "o"),
                         "--model", "geo", "--mode", "exact"])
        assert code == cli.EXIT_DOMAIN

    def test_zero_delay_exit_and_shift_remedy(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0 1 2\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir)]) \
            == cli.EXIT_DOMAIN
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--shift-delays", "0.5"]) == 0

    def test_fixed_mode_requires_beta(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "1 2\n")
        assert cli.main(["run", "--input", str(data), "--output-dir", str(tmp_path / "o"),
                         "--mode", "fixed"]) == cli.EXIT_DOMAIN

    def test_missing_input_file(self, tmp_path):
        assert cli.main(["run", "--input", str(tmp_path / "nope.txt"),
                         "--output-dir", str(tmp_path / "o")]) == cli.EXIT_DOMAIN

    @pytest.mark.parametrize("mode", ["mean", "opt-beta", "opt-both", "fixed"])
    def test_overflowing_top_rate_exits_domain(self, tmp_path, mode):
        data = tmp_path / "d.txt"
        write(data, "1 2 0.5 3 0.2\n")
        assert cli.main(["run", "--input", str(data), "--output-dir", str(tmp_path / "o"),
                         "--mode", mode, "--k", "2000", "--beta", "0.5"]) == cli.EXIT_DOMAIN

    @pytest.mark.parametrize("model, text", [("exp", "1 2 0.5 3\n"), ("geo", "1 2 0 4\n")])
    @pytest.mark.parametrize("mode", ["opt-beta", "opt-both"])
    @pytest.mark.parametrize("flag, value", [("--epsilon", "nan"), ("--epsilon", "inf"),
                                             ("--gamma", "nan"), ("--gamma", "inf")])
    def test_non_finite_epsilon_or_gamma_exits_domain(self, tmp_path, model, text, mode,
                                                      flag, value):
        # geo opt-beta with a nan epsilon used to run without end
        data = tmp_path / "d.txt"
        write(data, text)
        outdir = tmp_path / "o"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--model", model, "--mode", mode, flag, value]) == cli.EXIT_DOMAIN
        assert not outdir.exists()

    @pytest.mark.parametrize("model", ["exp", "geo"])
    @pytest.mark.parametrize("token", ["inf", "nan", "1e400"])
    def test_non_finite_delay_exits_domain(self, tmp_path, model, token):
        data = tmp_path / "d.txt"
        write(data, f"1 {token} 2\n")
        outdir = tmp_path / "o"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--model", model, "--mode", "mean"]) == cli.EXIT_DOMAIN
        assert not outdir.exists()

    @pytest.mark.parametrize("model, text", [("exp", "1 2 0.5 3\n"), ("geo", "1 2 0 4\n")])
    @pytest.mark.parametrize("mode", ["opt-beta", "opt-both"])
    @pytest.mark.parametrize("epsilon", ["1e-17", "1e-16"])
    def test_epsilon_lost_next_to_one_exits_domain(self, tmp_path, model, text, mode, epsilon):
        # 1 + eps == 1: the exp scans used to end in a MemoryError, the geo ones never ended
        data = tmp_path / "d.txt"
        write(data, text)
        outdir = tmp_path / "o"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--model", model, "--mode", mode, "--epsilon", epsilon]) == cli.EXIT_DOMAIN
        assert not outdir.exists()

    def test_geo_defaults_alpha_below_one(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "1 2 0 4\n")
        outdir = tmp_path / "out"
        assert cli.main(["run", "--input", str(data), "--output-dir", str(outdir),
                         "--model", "geo", "--mode", "opt-beta"]) == 0
        assert read_summary(outdir)["alpha"] == pytest.approx(0.5)


class TestExperimentCommand:
    def test_burst_length_outputs(self, tmp_path):
        outdir = tmp_path / "out"
        code = cli.main(["experiment", "burst-length", "--output-dir", str(outdir),
                         "--trials", "2", "--n", "50", "--lengths", "10,20"])
        assert code == 0
        tlines = (outdir / "trials.tsv").read_text().splitlines()
        assert tlines[0].startswith("burst_length\t")
        assert len(tlines) == 1 + 2 * 2 * 2
        slines = (outdir / "summary.tsv").read_text().splitlines()
        assert len(slines) == 1 + 2 * 2

    def test_fig3_alias_matches_burst_length(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for name, out in (("burst-length", out_a), ("fig3", out_b)):
            assert cli.main(["experiment", name, "--output-dir", str(out),
                             "--trials", "2", "--n", "40", "--lengths", "10"]) == 0
        assert (out_a / "trials.tsv").read_text() == (out_b / "trials.tsv").read_text()

    def test_sequence_length_outputs(self, tmp_path):
        outdir = tmp_path / "out"
        code = cli.main(["experiment", "sequence-length", "--output-dir", str(outdir),
                         "--trials", "2", "--lengths", "30,45"])
        assert code == 0
        tlines = (outdir / "trials.tsv").read_text().splitlines()
        assert tlines[0].startswith("sequence_length\t")
        assert len(tlines) == 1 + 2 * 2 * 2

    def test_burst_longer_than_n_exits_domain(self, tmp_path):
        outdir = tmp_path / "out"
        assert cli.main(["experiment", "burst-length", "--output-dir", str(outdir),
                         "--lengths", "50,600", "--n", "500"]) == cli.EXIT_DOMAIN
        assert not outdir.exists()

    @pytest.mark.parametrize("protocol", ["burst-length", "sequence-length"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_domain(self, tmp_path, protocol, trials):
        outdir = tmp_path / "out"
        assert cli.main(["experiment", protocol, "--output-dir", str(outdir),
                         "--trials", trials]) == cli.EXIT_DOMAIN
        assert not outdir.exists()

    @pytest.mark.parametrize("protocol", ["burst-length", "sequence-length"])
    @pytest.mark.parametrize("flag, value", [("--epsilon", "nan"), ("--epsilon", "inf"),
                                             ("--gamma", "nan"), ("--gamma", "inf")])
    def test_non_finite_epsilon_or_gamma_exits_domain(self, tmp_path, protocol, flag, value):
        outdir = tmp_path / "out"
        assert cli.main(["experiment", protocol, "--output-dir", str(outdir), "--trials", "1",
                         "--n", "40", "--lengths", "30", flag, value]) == cli.EXIT_DOMAIN
        assert not outdir.exists()

    def test_bad_lengths_list(self, tmp_path):
        assert cli.main(["experiment", "burst-length", "--output-dir", str(tmp_path),
                         "--trials", "1", "--lengths", "ten"]) == cli.EXIT_DOMAIN
