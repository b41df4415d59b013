import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    CORRECTION_SENTENCE,
    AttemptOutOfRange,
    EmptyField,
    MissingPlaceholder,
    PromptTemplate,
    RefinementRequest,
    TemperatureSchedule,
    execution_error,
    invalid_solution,
    next_temperature,
    refinement_loop,
    render_prompt,
    valid,
    validate_candidate_tour,
)
from tsplab.refine import DEFAULT_TEMPLATE_BODY, PLACEHOLDERS

REQUEST = RefinementRequest(
    algorithm_name="Genetic Algorithm",
    main_signature="def genetic_algorithm(dist_matrix, pop_size, generations):",
    code="def genetic_algorithm(dist_matrix, pop_size, generations):\n    pass\n",
)


class TestRenderPrompt:
    def test_default_template_contains_framing(self):
        out = render_prompt(PromptTemplate(), REQUEST)
        assert ("improve this Genetic Algorithm implementation for the "
                "travelling salesman problem") in out
        assert "Keep the main function signature: def genetic_algorithm" in out
        assert out.rstrip().endswith("pass")

    def test_no_placeholder_survives(self):
        out = render_prompt(PromptTemplate(), REQUEST)
        assert "{{" not in out and "}}" not in out

    def test_substitution_is_single_pass(self):
        # a placeholder smuggled in through the code field must not expand
        tricky = RefinementRequest(
            algorithm_name="Tabu Search",
            main_signature="def tabu(d):",
            code="print('{{algorithm name}}')",
        )
        out = render_prompt(PromptTemplate(), tricky)
        assert "print('{{algorithm name}}')" in out

    def test_everything_else_is_byte_identical(self):
        out = render_prompt(PromptTemplate(), REQUEST)
        expected = DEFAULT_TEMPLATE_BODY
        for placeholder, value in zip(
            PLACEHOLDERS,
            (REQUEST.algorithm_name, REQUEST.main_signature, REQUEST.code),
        ):
            expected = expected.replace(placeholder, value)
        assert out == expected

    @pytest.mark.parametrize("placeholder", PLACEHOLDERS)
    def test_missing_placeholder_is_named(self, placeholder):
        body = DEFAULT_TEMPLATE_BODY.replace(placeholder, "gone")
        with pytest.raises(MissingPlaceholder, match=r"algorithm|signature"):
            render_prompt(PromptTemplate(body=body), REQUEST)

    def test_empty_fields_rejected(self):
        with pytest.raises(EmptyField):
            RefinementRequest("", "def f():", "code")
        with pytest.raises(EmptyField):
            RefinementRequest("GA", "   ", "code")
        with pytest.raises(EmptyField):
            RefinementRequest("GA", "def f():", "")

    @given(st.text(min_size=1).filter(str.strip),
           st.text(min_size=1).filter(str.strip))
    @settings(max_examples=100, deadline=None)
    def test_distinct_names_render_distinct_prompts(self, a, b):
        ra = RefinementRequest(a, "def f():", "x = 1")
        rb = RefinementRequest(b, "def f():", "x = 1")
        if a != b:
            assert render_prompt(PromptTemplate(), ra) != render_prompt(PromptTemplate(), rb)
        else:
            assert render_prompt(PromptTemplate(), ra) == render_prompt(PromptTemplate(), rb)


class TestNextTemperature:
    def test_default_ladder(self):
        s = TemperatureSchedule()
        assert [next_temperature(s, a) for a in range(1, 6)] == [
            1.0, 0.8, pytest.approx(0.6), pytest.approx(0.4), pytest.approx(0.2),
        ]

    def test_floor_clamp(self):
        s = TemperatureSchedule(start=2.0, decrement=0.5, floor=0.2, max_attempts=5)
        assert next_temperature(s, 5) == pytest.approx(0.2)

    def test_high_start_first_attempt(self):
        s = TemperatureSchedule(start=2.0)
        assert next_temperature(s, 1) == 2.0

    def test_attempt_out_of_range(self):
        s = TemperatureSchedule(max_attempts=3)
        with pytest.raises(AttemptOutOfRange):
            next_temperature(s, 0)
        with pytest.raises(AttemptOutOfRange):
            next_temperature(s, 4)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(start=0.0)
        with pytest.raises(ValueError):
            TemperatureSchedule(start=0.1, floor=0.5)
        with pytest.raises(ValueError):
            TemperatureSchedule(decrement=-0.1)
        with pytest.raises(ValueError):
            TemperatureSchedule(max_attempts=0)


def _scripted(verdicts):
    """Evaluator returning canned verdicts; records every call it receives."""
    calls = []
    feed = iter(verdicts)

    def evaluator(payload, temperature, feedback):
        calls.append({"payload": payload, "temperature": temperature,
                      "feedback": feedback})
        return f"candidate-{len(calls)}", next(feed)

    return evaluator, calls


class TestRefinementLoop:
    def test_first_try_success(self):
        evaluator, calls = _scripted([valid()])
        report = refinement_loop(REQUEST, evaluator=evaluator)
        assert report.succeeded
        assert report.attempts == 1 and report.corrections == 0
        assert report.final_candidate == "candidate-1"
        assert calls[0]["feedback"] is None
        assert "Genetic Algorithm" in calls[0]["payload"]

    def test_execution_errors_then_valid(self):
        evaluator, calls = _scripted([
            execution_error("NameError: dist is not defined"),
            execution_error("IndexError: list index out of range"),
            valid(),
        ])
        report = refinement_loop(REQUEST, evaluator=evaluator)
        assert report.succeeded
        assert report.attempts == 3 and report.corrections == 2
        assert calls[1]["feedback"] == "NameError: dist is not defined"
        assert calls[2]["feedback"] == "IndexError: list index out of range"
        # retries carry the latest candidate, not the original prompt
        assert calls[1]["payload"] == "candidate-1"
        assert calls[2]["payload"] == "candidate-2"
        temps = [o.temperature for o in report.outcomes]
        assert temps == sorted(temps, reverse=True)
        assert not report.both_failures

    def test_invalid_solution_feedback_is_verbatim_sentence(self):
        evaluator, calls = _scripted([invalid_solution(), valid()])
        report = refinement_loop(REQUEST, evaluator=evaluator)
        assert report.succeeded
        assert calls[1]["feedback"] == (
            "The provided code generates invalid solutions; "
            "please verify and return a corrected version."
        )
        assert calls[1]["feedback"] == CORRECTION_SENTENCE

    def test_exhaustion(self):
        evaluator, _ = _scripted([execution_error("boom")] * 4)
        schedule = TemperatureSchedule(max_attempts=4)
        report = refinement_loop(REQUEST, schedule=schedule, evaluator=evaluator)
        assert not report.succeeded
        assert report.attempts == 4
        assert all(o.verdict.kind == "execution_error" for o in report.outcomes)

    def test_both_failures_flag(self):
        evaluator, _ = _scripted([
            execution_error("boom"), invalid_solution(), valid(),
        ])
        report = refinement_loop(REQUEST, evaluator=evaluator)
        assert report.both_failures

    def test_temperatures_respect_schedule(self):
        evaluator, calls = _scripted([execution_error("e")] * 5)
        schedule = TemperatureSchedule(start=1.0, decrement=0.3, floor=0.25,
                                       max_attempts=5)
        report = refinement_loop(REQUEST, schedule=schedule, evaluator=evaluator)
        temps = [o.temperature for o in report.outcomes]
        assert temps == [1.0, 0.7, pytest.approx(0.4), 0.25, 0.25]
        assert [c["temperature"] for c in calls] == temps
        assert min(temps) >= schedule.floor

    def test_evaluator_crash_becomes_failed_report(self):
        def evaluator(payload, temperature, feedback):
            raise RuntimeError("sandbox died")

        report = refinement_loop(REQUEST, evaluator=evaluator)
        assert not report.succeeded
        assert report.evaluator_error == "RuntimeError: sandbox died"
        assert report.outcomes == []

    def test_evaluator_crash_keeps_the_last_candidate(self):
        verdicts = iter([invalid_solution("dup city")])

        def evaluator(payload, temperature, feedback):
            verdict = next(verdicts, None)
            if verdict is None:
                raise RuntimeError("sandbox died")
            return "candidate-1", verdict

        report = refinement_loop(REQUEST, evaluator=evaluator)
        assert [o.verdict for o in report.outcomes] == [invalid_solution("dup city")]
        assert report.final_candidate == "candidate-1"
        assert report.evaluator_error == "RuntimeError: sandbox died"
        assert report.succeeded is False

    def test_evaluator_required(self):
        with pytest.raises(ValueError):
            refinement_loop(REQUEST)


class TestValidateCandidateTour:
    def test_valid(self):
        assert validate_candidate_tour([0, 1, 2], 3).kind == "valid"

    def test_duplicate(self):
        verdict = validate_candidate_tour([0, 0, 2], 3)
        assert verdict.kind == "invalid_solution"
        assert verdict.message == "duplicate index"

    def test_empty_instance_convention(self):
        assert validate_candidate_tour([], 0).kind == "valid"

    def test_wrong_length(self):
        assert validate_candidate_tour([0, 1], 3).kind == "invalid_solution"
