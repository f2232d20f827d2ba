import re
from fractions import Fraction

import pytest

import braidtwist.fdtc as fdtc
import braidtwist.genus_bounds as genus_bounds
from braidtwist import BraidWord, garside_delta
from braidtwist.genus_bounds import PREDICATES, audit_bounds, tau_s_bounds
from oracles import g4_torus_difference, torus_tau, upsilon_at_one


class TestTauSBounds:
    def test_balanced_family_window(self):
        for k in (1, 2, 3):
            w = garside_delta(3, squared=True) ** k * BraidWord(3, [-1] + [-2] * (6 * k - 1))
            b = tau_s_bounds(w)
            assert b["tau"] == (-1, 1)
            assert b["s"] == (-2, 2)

    def test_positive_braid_window_is_sharp(self):
        b = tau_s_bounds(BraidWord(3, [1, 2] * 4))
        assert b["tau"][0] == 3
        assert b["s"][0] == 6

    def test_unknot_window(self):
        b = tau_s_bounds(BraidWord(2, [1]))
        assert b["tau"] == (0, 1)

    def test_window_widths(self):
        w = BraidWord(4, [1, -2, 3])
        b = tau_s_bounds(w)
        assert b["tau"][1] - b["tau"][0] == w.strands - 1
        assert b["s"] == (2 * b["tau"][0], 2 * b["tau"][1])

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            tau_s_bounds(BraidWord(3, []))


class TestTorusTau:
    def test_closed_form(self):
        assert torus_tau(3, 7) == 6
        assert torus_tau(2, 11) == 5

    def test_unknot(self):
        assert torus_tau(1, 5) == 0

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            torus_tau(4, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            torus_tau(0, 3)


class TestUpsilonAtOne:
    def test_two_strand_family(self):
        assert upsilon_at_one("T2", 5) == -5
        assert upsilon_at_one("T2", 0) == 0

    def test_three_strand_family(self):
        assert upsilon_at_one("T3", 2) == -4

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            upsilon_at_one("T4", 1)


class TestG4TorusDifference:
    def test_half_m_on_the_critical_line(self):
        assert g4_torus_difference(2, 5) == 1
        assert g4_torus_difference(4, 10) == 2

    def test_degenerate(self):
        assert g4_torus_difference(0, 0) == 0

    def test_even_grid(self):
        for m in (2, 4, 6, 8, 10):
            assert g4_torus_difference(m, 5 * m // 2) == Fraction(m, 2)


class TestAuditBounds:
    def test_ito_on_a_positive_braid(self):
        w = BraidWord(3, [1, 2] * 4)
        record = audit_bounds(w, g3=3)
        assert record["floor"] == 1
        assert record["fdtc"] == Fraction(4, 3)
        (entry,) = record["predicates"]
        assert entry["predicate"] == "ito"
        assert entry["status"] == "pass"

    def test_question15_with_upper_bound(self):
        w = BraidWord(3, [2, 1] * 7 + [-2] * 10)
        record = audit_bounds(w, g4_upper=2)
        (entry,) = record["predicates"]
        assert entry["predicate"] == "question15"
        assert entry["status"] == "pass"
        assert entry["g4_is_upper"]
        assert entry["bound"] == 5

    def test_question15_violation_is_a_candidate(self):
        w = BraidWord(3, [1, 2] * 4)
        record = audit_bounds(w, g4=Fraction(0))
        (entry,) = record["predicates"]
        assert entry["status"] == "counterexample-candidate"

    def test_slice3_pass(self):
        record = audit_bounds(BraidWord(3, [1, -2]), finite_concordance_order=True)
        (entry,) = record["predicates"]
        assert entry["predicate"] == "slice3"
        assert entry["status"] == "pass"

    def test_slice3_skipped_off_three_strands(self):
        w = BraidWord(4, [1, 2, 3])
        record = audit_bounds(w, finite_concordance_order=True)
        (entry,) = record["predicates"]
        assert entry["status"] == "skipped"
        assert "3-braid" in entry["reason"]

    def test_qp_predicate(self):
        w = BraidWord(3, [1, 2])
        record = audit_bounds(w, qp_length=2)
        (entry,) = record["predicates"]
        assert entry["predicate"] == "qp"
        assert entry["status"] == "pass"
        assert entry["bound"] == 1

    def test_auto_selection_includes_only_supplied(self):
        w = BraidWord(3, [1, 2])
        record = audit_bounds(w, g3=1, qp_length=2)
        names = [e["predicate"] for e in record["predicates"]]
        assert names == ["ito", "qp"]

    def test_explicit_request_needs_data(self):
        w = BraidWord(3, [1, 2])
        with pytest.raises(ValueError, match="needs g3"):
            audit_bounds(w, predicates=["ito"])

    def test_unknown_predicate(self):
        w = BraidWord(3, [1, 2])
        with pytest.raises(ValueError, match="unknown predicate"):
            audit_bounds(w, predicates=["genus"])

    def test_rejects_links(self):
        with pytest.raises(ValueError, match="not a knot"):
            audit_bounds(garside_delta(3, squared=True), g3=1)

    def test_one_floor_search_per_line(self, monkeypatch):
        """The floor and BT come from one fdtc_exact call, so one search."""
        searches = []

        class Counting(fdtc._PowerSearch):
            def __init__(self, w):
                searches.append(w)
                super().__init__(w)

        monkeypatch.setattr(fdtc, "_PowerSearch", Counting)
        for letters in ([1, 2] * 4, [2, 1] * 7 + [-2] * 6, [1, -2]):
            searches.clear()
            record = audit_bounds(BraidWord(3, letters), g3=3)
            assert len(searches) == 1
            assert record["floor"] == fdtc.dehornoy_floor(BraidWord(3, letters))

    @pytest.mark.parametrize("kwargs, message", [
        ({"finite_concordance_order": "false"},
         'finite_concordance_order must be true, false or null, got "false"'),
        ({"qp_length": 1.5}, "qp_length must be an integer, got 1.5"),
        ({"qp_length": True}, "qp_length must be an integer, got true"),
        ({"g3": True}, "g3 must be a rational number, got true"),
        ({"g4": "1_0"}, 'g4 must be a rational number, got "1_0"'),
        ({"g3": None}, "g3 must be a rational number, got null"),
        ({"g4_upper": -1}, "g4_upper must be nonnegative, got -1"),
        ({"g3": 1, "qp_length": 0, "predicates": ["ito"]},
         "qp_length must be a positive band count, got 0"),
    ])
    def test_inputs_are_read_as_the_cli_reads_them(self, kwargs, message):
        """The CLI's readers and messages, range checks included, before
        the knot check and whatever predicates requests."""
        for w in (BraidWord(3, [1, 2]), garside_delta(3, squared=True)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                audit_bounds(w, **kwargs)

    def test_unknown_input_is_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'g5'"):
            audit_bounds(BraidWord(3, [1, 2]), g5=1)

    def test_predicate_registry(self):
        assert PREDICATES == ("ito", "question15", "slice3", "qp")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"qp_length": 0}, "positive band count"),
            ({"qp_length": 0, "g3": 1, "predicates": ["qp", "ito"]}, "positive band count"),
            ({"predicates": ["qp", "ito"]}, "'ito' needs g3"),
            ({"qp_length": 2, "predicates": ["qp", "slice3"]}, "needs finite_concordance_order"),
            ({"predicates": ["qp", "genus"]}, "unknown predicate 'genus'"),
            ({"g4": -5}, "g4 must be nonnegative, got -5"),
            ({"g3": Fraction(-1, 2), "qp_length": 2}, "g3 must be nonnegative, got -1/2"),
            ({"g4_upper": "-1", "predicates": ["ito"]}, "g4_upper must be nonnegative, got -1"),
        ],
    )
    def test_inputs_are_validated_before_engine_work(self, monkeypatch, kwargs, message):
        def engine(*args, **kwargs):
            raise AssertionError("engine called before validation")

        monkeypatch.setattr(genus_bounds, "dehornoy_floor", engine)
        monkeypatch.setattr(genus_bounds, "fdtc_exact", engine)
        with pytest.raises(ValueError, match=message):
            audit_bounds(BraidWord(3, [1, 2]), **kwargs)
