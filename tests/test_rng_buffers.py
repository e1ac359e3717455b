"""Unit tests for repro.utils.rng."""

from repro.utils.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")


class TestRngStreams:
    def test_same_name_same_sequence(self):
        a = RngStreams(7).get("x").normal(size=5)
        b = RngStreams(7).get("x").normal(size=5)
        assert (a == b).all()

    def test_different_names_independent(self):
        s = RngStreams(7)
        a = s.get("x").normal(size=5)
        b = s.get("y").normal(size=5)
        assert not (a == b).all()

    def test_request_order_does_not_matter(self):
        s1 = RngStreams(7)
        s1.get("first")
        x1 = s1.get("second").normal(size=3)
        s2 = RngStreams(7)
        x2 = s2.get("second").normal(size=3)
        assert (x1 == x2).all()

    def test_child_derivation(self):
        a = RngStreams(7).child("scenario", "S1").get("setup").normal(size=3)
        b = RngStreams(7).child("scenario", "S1").get("setup").normal(size=3)
        c = RngStreams(7).child("scenario", "S2").get("setup").normal(size=3)
        assert (a == b).all()
        assert not (a == c).all()

