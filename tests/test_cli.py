"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "SC'99" in out

    def test_demo_validates(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Taylor-Green" in out
        assert "rel err" in out

    def test_fig4_short(self, capsys):
        assert main(["fig4", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "tail iteration ratio" in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--size", "15"]) == 0
        out = capsys.readouterr().out
        assert "XXT" in out and "bound" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        assert "2048" in out

    def test_table2_level0(self, capsys):
        assert main(["table2", "--level", "0"]) == 0
        out = capsys.readouterr().out
        assert "FDM" in out and "A0=0" in out

    def test_pmg_condensed_tier(self, capsys):
        assert main([
            "pmg", "--dim", "2", "--elements", "3", "--order", "8",
            "--smoother", "chebyshev", "--coarse", "condensed",
        ]) == 0
        out = capsys.readouterr().out
        assert "condensed" in out and "converged" in out
        assert "iterations" in out

    def test_pmg_default_jacobi_3d(self, capsys):
        assert main(["pmg", "--order", "4", "--elements", "2"]) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out

    def test_pmg_rejects_unknown_smoother(self):
        for bad in ("bogus", "condensed"):
            with pytest.raises(SystemExit):
                main(["pmg", "--smoother", bad])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_sweep_prints_throughput_and_cache(self, capsys):
        assert main(["sweep", "--runs", "6", "--workers", "2",
                     "--level", "0", "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 6 runs on 2 workers" in out
        assert "throughput:" in out and "runs/s" in out
        assert "cache:" in out and "hit rate" in out
        assert "batching" not in out

    def test_report_with_ranks_profiles_gather_scatter(self, tmp_path):
        from repro import obs

        out = tmp_path / "report.json"
        assert main(["report", "--steps", "2", "--elements", "2", "--order", "4",
                     "--ranks", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        obs.validate_report(doc)
        gs_seconds = [v["value"] for v in doc["values"]
                      if v["name"] == "gs_simulated_seconds"]
        assert len(gs_seconds) == 1 and gs_seconds[0] > 0
        gs = [c for c in doc["comm"]["records"] if c["kind"] == "gs"]
        assert len(gs) == 1 and gs[0]["messages"] > 0
        assert doc["comm"]["totals"]["messages"] >= gs[0]["messages"]

    def test_serve_emits_result_lines_and_summary(self, capsys, monkeypatch):
        spec = {"workload": "table2", "params": {"level": 0, "order": 3},
                "config": {"maxiter": 200}}
        lines = [json.dumps(dict(spec, label=tag)) for tag in ("a", "b")]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve"]) == 0
        docs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [d["label"] for d in docs[:2]] == ["a", "b"]
        assert all(d["ok"] and d["converged"] for d in docs[:2])
        assert len(docs) == 3 and docs[2]["summary"]["runs"] == 2
