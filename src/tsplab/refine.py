"""Code-refinement protocol: prompt rendering, retry loop, temperature ladder.

The loop talks to a pluggable evaluator callback, so scripted evaluators can
drive it deterministically in tests. No network transport lives here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import AttemptOutOfRange, EmptyField, MissingPlaceholder
from .tours import validate_tour

VALID = "valid"
EXECUTION_ERROR = "execution_error"
INVALID_SOLUTION = "invalid_solution"

NAME_PLACEHOLDER = "{{algorithm name}}"
SIGNATURE_PLACEHOLDER = "{{the signature of an the main function}}"
CODE_PLACEHOLDER = "{{algorithm code}}"
PLACEHOLDERS = (NAME_PLACEHOLDER, SIGNATURE_PLACEHOLDER, CODE_PLACEHOLDER)

CORRECTION_SENTENCE = (
    "The provided code generates invalid solutions; "
    "please verify and return a corrected version."
)

DEFAULT_TEMPLATE_BODY = """You are an optimization algorithm expert.

I need to improve this {{algorithm name}} implementation for the travelling salesman problem (TSP) by incorporating state-of-the-art techniques. Focus on:

1. Finding better quality solutions
2. Faster convergence time

Requirements:
- Keep the main function signature: {{the signature of an the main function}}
- Include detailed docstrings explaining:
  * What improvement is implemented
  * How it enhances performance
  * Which state-of-the-art technique it is based on
- All explanations must be within docstrings, no additional text
- Check that there are no errors in the code

IMPORTANT:
- Return ONLY Python code
- Any explanation or discussion must be inside docstrings
- At the end, include a comment block listing unmodified functions from the original code

Current implementation:
{{algorithm code}}
"""


@dataclass(frozen=True)
class PromptTemplate:
    body: str = DEFAULT_TEMPLATE_BODY


def load_template(path: str) -> PromptTemplate:
    with open(path, encoding="utf-8") as fh:
        return PromptTemplate(body=fh.read())


@dataclass(frozen=True)
class RefinementRequest:
    algorithm_name: str
    main_signature: str
    code: str

    def __post_init__(self):
        for label, value in (
            ("algorithm_name", self.algorithm_name),
            ("main_signature", self.main_signature),
            ("code", self.code),
        ):
            if not value or not value.strip():
                raise EmptyField(f"{label} must be non-empty")


@dataclass(frozen=True)
class TemperatureSchedule:
    start: float = 1.0
    decrement: float = 0.2
    floor: float = 0.2
    max_attempts: int = 5

    def __post_init__(self):
        if self.start <= 0 or self.floor <= 0:
            raise ValueError("start and floor must be positive")
        if self.decrement < 0:
            raise ValueError(f"decrement must be >= 0, got {self.decrement}")
        if self.start < self.floor:
            raise ValueError(f"start {self.start} is below floor {self.floor}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


@dataclass(frozen=True)
class Verdict:
    kind: str  # valid | execution_error | invalid_solution
    message: str | None = None


def valid() -> Verdict:
    return Verdict(VALID)


def execution_error(message: str) -> Verdict:
    return Verdict(EXECUTION_ERROR, message)


def invalid_solution(message: str | None = None) -> Verdict:
    return Verdict(INVALID_SOLUTION, message)


@dataclass(frozen=True)
class ValidationOutcome:
    verdict: Verdict
    attempt: int          # 1-based
    temperature: float
    feedback: str | None  # what was sent alongside this attempt's payload


@dataclass
class RefinementReport:
    outcomes: list[ValidationOutcome] = field(default_factory=list)
    succeeded: bool = False
    final_candidate: str | None = None
    evaluator_error: str | None = None

    @property
    def attempts(self) -> int:
        return len(self.outcomes)

    @property
    def corrections(self) -> int:
        """Attempts beyond the first, i.e. how many retries were needed."""
        return max(0, len(self.outcomes) - 1)

    @property
    def both_failures(self) -> bool:
        kinds = {o.verdict.kind for o in self.outcomes}
        return EXECUTION_ERROR in kinds and INVALID_SOLUTION in kinds


def render_prompt(template: PromptTemplate, request: RefinementRequest) -> str:
    """Substitute the three placeholders in one left-to-right pass.

    A single pass means text carried in by a substitution is never rescanned,
    so code containing brace pairs cannot trigger a second substitution.
    """
    for placeholder in PLACEHOLDERS:
        if placeholder not in template.body:
            raise MissingPlaceholder(f"template is missing {placeholder}")
    values = {
        NAME_PLACEHOLDER: request.algorithm_name,
        SIGNATURE_PLACEHOLDER: request.main_signature,
        CODE_PLACEHOLDER: request.code,
    }
    pattern = re.compile("|".join(re.escape(p) for p in PLACEHOLDERS))
    return pattern.sub(lambda m: values[m.group(0)], template.body)


def next_temperature(schedule: TemperatureSchedule, attempt: int) -> float:
    """Linear decrease clamped at the floor; attempt is 1-based."""
    if attempt < 1 or attempt > schedule.max_attempts:
        raise AttemptOutOfRange(
            f"attempt {attempt} outside 1..{schedule.max_attempts}"
        )
    return max(schedule.floor, schedule.start - (attempt - 1) * schedule.decrement)


def validate_candidate_tour(order, n: int) -> Verdict:
    """Map a tour check onto the protocol's verdict vocabulary.

    An empty tour on an empty instance counts as valid.
    """
    check = validate_tour(order, n)
    if check.ok:
        return valid()
    return invalid_solution(check.problem)


def refinement_loop(request: RefinementRequest,
                    template: PromptTemplate | None = None,
                    schedule: TemperatureSchedule | None = None,
                    evaluator=None) -> RefinementReport:
    """Drive the retry loop until the evaluator says valid or attempts run out.

    Attempt 1 sends the fully rendered prompt; later attempts send the latest
    candidate plus feedback: the execution error text when the code crashed,
    or the fixed correction sentence when it ran but produced bad tours.
    An exception inside the evaluator yields a failed report, never a crash.
    """
    if evaluator is None:
        raise ValueError("an evaluator callback is required")
    template = template if template is not None else PromptTemplate()
    schedule = schedule if schedule is not None else TemperatureSchedule()
    payload = render_prompt(template, request)
    feedback: str | None = None
    report = RefinementReport()
    for attempt in range(1, schedule.max_attempts + 1):
        temperature = next_temperature(schedule, attempt)
        try:
            candidate, verdict = evaluator(payload, temperature, feedback)
        except Exception as exc:
            report.evaluator_error = f"{type(exc).__name__}: {exc}"
            break
        report.final_candidate = candidate
        report.outcomes.append(ValidationOutcome(verdict, attempt, temperature, feedback))
        if verdict.kind == VALID:
            report.succeeded = True
            break
        if verdict.kind == EXECUTION_ERROR:
            feedback = verdict.message or "execution error"
        else:
            feedback = CORRECTION_SENTENCE
        payload = candidate
    return report
