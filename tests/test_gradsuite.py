"""Gradient suite: named reports, the merged parameter report, the size the
benchmark pins, and a wrong gradient."""

from pathlib import Path

import numpy as np
import pytest

from lightavseg import decoder, encoder, gradsuite, tensor
from lightavseg.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def wrong_hsigmoid(x):
    """``hsigmoid`` whose backward passes on twice the true gradient."""
    out = tensor.hsigmoid(x)
    if out._backward is not None:
        bw = out._backward
        out._backward = lambda g: bw(2.0 * g)
    return out


def decoder_filter_with_wrong_gate(state, v, gate_map):
    """The decoder's ``semantic_filter``, its gate's ``hsigmoid`` made ``wrong_hsigmoid``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(encoder, "hsigmoid", wrong_hsigmoid)
        return encoder.semantic_filter(state, v, gate_map)


class TestReports:
    def test_every_check_is_a_named_report(self):
        reports = gradsuite.op_checks() + gradsuite.module_checks()
        assert all(isinstance(r, tensor.GradCheckReport) for r in reports)
        names = [r.name for r in reports]
        assert len(set(names)) == len(names) and "" not in names
        assert all(r.passed and r.failures == [] for r in reports)

    def test_quick_suite_is_the_size_the_benchmark_pins(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        reports = gradsuite.full_suite(quick=True)
        assert len(reports) == workloads.GRADCHECK_CHECKS
        assert sum(r.n_checked for r in reports) == workloads.GRADCHECK_COORDS
        assert all(r.passed for r in reports)

    def test_param_report_sums_every_parameter(self):
        inp, params = gradsuite.end_to_end_check(input_coords=1, param_coords=2)
        assert (inp.name, inp.n_checked) == ("end_to_end(d/d input)", 1)
        sizes = [p.data.size for p in gradsuite.tiny_model().params.values()]
        assert params.name == "end_to_end(d/d params)"
        assert params.n_checked == sum(min(2, s) for s in sizes)
        assert params.passed and params.failures == []


class TestWrongGradient:
    """A backward off by a factor of 2 in the decoder gate fails the suite."""

    def test_reports_fail_and_carry_failures(self, monkeypatch):
        monkeypatch.setattr(decoder, "semantic_filter", decoder_filter_with_wrong_gate)
        by_name = {r.name: r for r in gradsuite.module_checks()}
        by_name.update((r.name, r) for r in gradsuite.end_to_end_check(input_coords=32,
                                                                        param_coords=1))
        # the encoder-only check does not reach the decoder gate
        assert by_name["fusion_step(audio)"].passed
        for name in ("fusion_step(visual)", "end_to_end(d/d input)",
                     "end_to_end(d/d params)"):
            rep = by_name[name]
            assert not rep.passed and rep.failures, name
            assert max(f[3] for f in rep.failures) == rep.max_rel_err
            assert np.isfinite(rep.max_rel_err) and rep.max_rel_err >= rep.tol
        # each parameter failure names its parameter and the flat index in it
        params = gradsuite.tiny_model().params
        for where, *_ in by_name["end_to_end(d/d params)"].failures:
            name, _, index = where.partition("[")
            assert name in params and 0 <= int(index.rstrip("]")) < params[name].data.size

    def test_gradcheck_cli_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(decoder, "semantic_filter", decoder_filter_with_wrong_gate)
        assert main(["gradcheck", "--quick"]) == 1
        lines = capsys.readouterr().out.splitlines()
        out = "\n".join(lines)
        assert "FAIL fusion_step(visual)" in out
        assert "PASS pointwise_linear(relu)" in out
        # the first three failures follow each FAIL line
        at = next(i for i, line in enumerate(lines) if "FAIL end_to_end(d/d params)" in line)
        params = gradsuite.tiny_model().params
        for line in lines[at + 1:at + 4]:
            assert line.startswith("    at ") and line.split()[1].split("[")[0] in params
        assert out.rstrip().endswith("FAILURES PRESENT")
