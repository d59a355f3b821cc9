"""The verdict rule of ``scripts/bench_pairs.py``, on hand-made samples,
and the two sides it exports."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 98.0, 102.0, 100.0, 99.5, 101.5, 98.5]


def shifted(by, losers=()):
    """The parent's runs moved by ``by``; the pairs in ``losers`` moved
    the other way."""
    return [p - by if k in losers else p + by for k, p in enumerate(PARENT)]


class TestVerdict:
    def test_summary(self):
        s = bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0])
        assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
        assert s["runs"] == [4.0, 1.0, 3.0, 2.0, 5.0]
        assert bench_pairs.summary([7.0])["median"] == 7.0

    def test_better_when_higher_is_better(self):
        v = verdict(PARENT, shifted(15), "higher", 0.25)
        assert (v["won"], v["lost"], v["verdict"]) == (10, 0, "better")

    def test_better_when_lower_is_better(self):
        v = verdict(PARENT, shifted(-15), "lower", 0.25)
        assert (v["won"], v["verdict"]) == (10, "better")
        assert verdict(PARENT, shifted(15), "lower", 0.25)["verdict"] == "worse"

    def test_nine_of_ten_pairs_suffice(self):
        v = verdict(PARENT, shifted(15, losers={3}), "higher", 0.25)
        assert (v["won"], v["lost"], v["verdict"]) == (9, 1, "better")

    def test_eight_of_ten_pairs_do_not(self):
        # a gap of 30 % at 8 of 10 wins is past the 25 % bound: unresolved
        v = verdict(PARENT, shifted(30, losers={3, 7}), "higher", 0.25)
        assert (v["won"], v["verdict"]) == (8, "unresolved")
        # the same split within the bound reads unchanged
        v = verdict(PARENT, shifted(2, losers={3, 7}), "higher", 0.25)
        assert v["verdict"] == "unchanged"

    def test_ties_count_for_neither_side(self):
        change = list(PARENT)
        change[0] += 50
        v = verdict(PARENT, change, "higher", 0.25)
        assert (v["won"], v["lost"], v["verdict"]) == (1, 0, "unchanged")

    def test_gap_must_pass_the_parents_spread(self):
        # every pair won, but by less than the parent's interquartile range
        s = bench_pairs.summary(PARENT)
        spread = s["q3"] - s["q1"]
        v = verdict(PARENT, shifted(spread / 2), "higher", 0.25)
        assert (v["won"], v["verdict"]) == (10, "unchanged")

    def test_worse(self):
        v = verdict(PARENT, shifted(-40), "higher", 0.25)
        assert (v["lost"], v["verdict"]) == (10, "worse")

    @pytest.mark.parametrize("bound, expected", [(0.1, "unresolved"), (0.5, "unchanged")])
    def test_spread_against_bound(self, bound, expected):
        # a parent whose own runs spread past the bound cannot read unchanged
        parent = [10.0, 14.0, 10.0, 14.0, 12.0, 12.0, 10.0, 14.0, 12.0, 12.0]
        change = [14.0, 10.0, 10.0, 14.0, 12.0, 12.0, 14.0, 10.0, 12.0, 12.0]
        assert verdict(parent, change, "higher", bound)["verdict"] == expected


class TestAgainstBound:
    def test_median_change_is_relative_to_the_parent(self):
        assert verdict(PARENT, shifted(15), "higher", 0.25)["median_change"] == pytest.approx(0.15)
        assert verdict(PARENT, shifted(-5), "lower", 0.25)["median_change"] == pytest.approx(-0.05)

    def test_worse_within_the_bound(self):
        # worse by the pairs rule, yet by less than the bound
        v = verdict(PARENT, shifted(4), "lower", 0.1)
        assert (v["verdict"], v["within_bound"]) == ("worse", True)
        assert v["median_change"] == pytest.approx(0.04)
        assert verdict(PARENT, shifted(4), "lower", 0.03)["within_bound"] is False
        assert verdict(PARENT, shifted(-4), "higher", 0.03)["within_bound"] is False

    def test_better_is_always_within(self):
        assert verdict(PARENT, shifted(-40), "lower", 0.01)["within_bound"] is True
        assert verdict(PARENT, shifted(40), "higher", 0.01)["within_bound"] is True

    def test_parent_median_zero(self):
        zero, one = [0.0] * 10, [1.0] * 10
        v = verdict(zero, zero, "higher", 0.01)
        assert (v["median_change"], v["within_bound"]) == (None, True)
        assert verdict(zero, one, "higher", 0.01)["within_bound"] is True
        assert verdict(zero, one, "lower", 0.01)["within_bound"] is False


class TestSides:
    def test_change_side_holds_uncommitted_edits(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)

        def git(*args):
            subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench",
                            "-c", "user.email=bench@example.org", *args],
                           check=True, capture_output=True)

        git("init", "-q")
        (repo / ".gitignore").write_text("out.log\n")
        (repo / "pkg" / "kept.py").write_text("committed\n")
        (repo / "gone.py").write_text("committed\n")
        git("add", "-A")
        git("commit", "-q", "-m", "parent")
        (repo / "pkg" / "kept.py").write_text("edited\n")
        (repo / "new.py").write_text("new\n")
        (repo / "out.log").write_text("ignored\n")
        (repo / "gone.py").unlink()
        bench_pairs.export("HEAD", tmp_path / "parent", repo)
        bench_pairs.snapshot(tmp_path / "change", repo)
        parent, change = tmp_path / "parent", tmp_path / "change"
        assert (parent / "pkg" / "kept.py").read_text() == "committed\n"
        assert (change / "pkg" / "kept.py").read_text() == "edited\n"
        assert (change / "new.py").read_text() == "new\n"
        assert (parent / "gone.py").exists() and not (change / "gone.py").exists()
        assert not (change / "out.log").exists()
