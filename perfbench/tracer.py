"""Spans and counters around iqgalois's public functions, installed from outside.

install() rebinds every traced function in each iqgalois module that holds
it: in its defining module, so internal calls pass through the wrapper, and
in every module that imported it by name.  uninstall() restores the
originals.  Spans are kept in memory as [name, start, end, parent, field]
and written out by the caller when the run ends.  The field id of a span
is the discriminant it works on, so all spans of one field share it.
"""

import bisect
import collections
import contextlib
import functools
import inspect
import json
import sys
import time

# Functions that get a span, by defining module.  A helper that is not
# listed counts toward the self time of the span that called it.
SPANNED = {
    "survey": (
        "scan",
        "persist",
        "table3",
        "splitting_status",
        "reduced_form_counts",
        "fundamental_mask",
    ),
    "quadform": ("class_group", "p_torsion_basis", "coprime_representative"),
    "idealgen": ("ideal_power", "principal_generator"),
    "localtest": (
        "build_context",
        "local_unit_image",
        "generic_membership",
        "injectivity_test",
        "two_classification",
    ),
    "classify": ("classify", "classify_validated", "status_at_odd_prime", "torsion_power_generator"),
    "discriminant": ("validate",),
}
# Counted but not spanned: which route produced h inside class_group.
COUNTED = {"quadform": ("class_number_bsgs", "enumerate_reduced_forms")}
# Spans that name their field: the discriminant D is the field id.  Every
# other span takes the field of its parent.
FIELD_OF = {
    "discriminant.validate": lambda args: args[0],
    "classify.classify": lambda args: args[0],
    "classify.classify_validated": lambda args: args[0].value,
    "survey.splitting_status": lambda args: args[0].value,
}


def _known_h(args, kwargs):
    return kwargs.get("known_h", args[2] if len(args) > 2 else None)


def _on_result(counts, name, args, kwargs, result):
    """Work counts recorded at the span boundaries."""
    if name == "survey.reduced_form_counts":
        counts["survey.sieve_calls"] += 1
    elif name == "quadform.class_group":
        counts["quadform.class_group_calls"] += 1
        if _known_h(args, kwargs) is not None:
            counts["quadform.h_source.sieve"] += 1
    elif name == "idealgen.principal_generator":
        bits = max(abs(result.u).bit_length(), abs(result.v).bit_length())
        counts["idealgen.generator_calls"] += 1
        counts["idealgen.generator_bits_sum"] += bits
        counts["idealgen.generator_bits_max"] = max(counts["idealgen.generator_bits_max"], bits)
    elif name == "localtest.local_unit_image":
        # the closed forms return coordinates; the engine path does not
        counts["localtest.closed_form_calls"] += result.coords is not None
    elif name == "localtest.generic_membership":
        counts["localtest.engine_calls"] += 1
    elif name == "localtest.two_classification":
        counts["localtest.two_family_calls"] += 1
    elif name == "classify.classify_validated":
        counts["classify.primes_tested"] += len(result.per_prime)
        counts["classify.rank_overflow"] += sum(s == "rank_overflow" for _, s in result.per_prime)
    elif name == "survey.splitting_status":
        counts["classify.primes_tested"] += 1
        counts["classify.rank_overflow"] += result == "rank_overflow"
    elif name == "discriminant.validate":
        counts["discriminant.validate_calls"] += 1


def _restore(saved: list[tuple]) -> None:
    for mod, attr, orig in reversed(saved):
        setattr(mod, attr, orig)
    saved.clear()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, field=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if field is None and parent >= 0:
            field = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, field])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for mod_name, names in SPANNED.items():
            mod = sys.modules[f"iqgalois.{mod_name}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                self._rebind(orig, self._span_wrapper(f"{mod_name}.{fn_name}", orig))
        quadform = sys.modules["iqgalois.quadform"]
        for fn_name in COUNTED["quadform"]:
            orig = getattr(quadform, fn_name)
            self._rebind(orig, self._route_counter(fn_name, orig))

    def uninstall(self) -> None:
        _restore(self._saved)

    @contextlib.contextmanager
    def counting_compose(self):
        """Count every compose call, for a pass whose timing is not used.

        compose runs far too often to wrap during the timed traced pass.
        """
        orig = sys.modules["iqgalois.quadform"].compose
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts["quadform.compose_calls"] += 1
            return orig(*args, **kwargs)

        saved: list[tuple] = []
        self._rebind(orig, wrapper, saved)
        try:
            yield
        finally:
            _restore(saved)

    def _rebind(self, orig, wrapper, saved=None) -> None:
        saved = self._saved if saved is None else saved
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "iqgalois" and not mod_name.startswith("iqgalois."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    saved.append((mod, attr, orig))

    def _span_wrapper(self, name, fn):
        tracer = self
        field_of = FIELD_OF.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.recording:
                    yield from fn(*args, **kwargs)
                    return
                idx = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name, field_of(args) if field_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            _on_result(tracer.counts, name, args, kwargs, result)
            return result

        return wrapper

    def _route_counter(self, fn_name, fn):
        tracer = self
        key = "bsgs" if fn_name == "class_number_bsgs" else "enumerate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording and tracer.current() == "quadform.class_group":
                tracer.counts[f"quadform.h_source.{key}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self, pauses=()) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans.

        pauses are (start, seconds) of work that interrupted the traced code,
        such as calibration kernels run from a signal handler.  Each is taken
        off the self time of the innermost span it fell in.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        starts = [span[1] for span in self.spans]
        for t, seconds in pauses:
            i = bisect.bisect_right(starts, t) - 1
            while i >= 0 and self.spans[i][2] < t:
                i = self.spans[i][3]
            if i >= 0:
                own[i] -= seconds
        out: dict[str, float] = collections.defaultdict(float)
        for span, t in zip(self.spans, own):
            out[span[0]] += t
        return dict(out)

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, field) in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": name,
                    "start": round(start - t0, 9),
                    "end": round(end - t0, 9),
                    "parent": parent if parent >= 0 else None,
                    "field": field,
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
