from orbitlab.checks import CheckResult


class TestVerdict:
    def test_no_witness_passes(self):
        result = CheckResult(name="probe", checked=3)
        assert result.passed is True
        assert bool(result) is True
        assert result.to_json()["pass"] is True

    def test_one_witness_fails(self):
        result = CheckResult(name="probe", checked=3, witnesses=[(1, 2)])
        assert result.passed is False
        assert bool(result) is False
        assert result.to_json()["pass"] is False

    def test_verdict_follows_the_witness_list(self):
        result = CheckResult(name="probe", checked=1)
        result.witnesses.append("late")
        assert not result.passed and not result
