"""In-memory span recorder for a traced wegnerlab process.

Every wrapped call records one span ``[name, start_ns, end_ns, parent,
trial]``, where ``parent`` is the index of the enclosing span (-1 at the
top) and ``trial`` the Monte Carlo trial index (-1 outside a trial).
Wrappers are installed at the place where the program looks each public
name up, so the package itself is unchanged.  Spans and counters stay in
memory and are written out once, when the traced process ends.
"""

import functools
import time
import warnings
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._trial = -1
        self._spectra = []

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``after(args, kwargs, result)`` runs once the span has ended, so the
        counting it does is not charged to the layer.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self._trial]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def trial(self, evaluate_event):
        """Wrap ``evaluate_event(query, seed, trial)`` as the trial span."""
        spanned = self.span("trial", evaluate_event)

        @functools.wraps(evaluate_event)
        def wrapper(*args, **kwargs):
            self._trial = args[2] if len(args) > 2 else kwargs["trial"]
            try:
                return spanned(*args, **kwargs)
            finally:
                self._trial = -1
                self._count_useful(args[0] if args else kwargs["query"])

        return wrapper

    def _count_useful(self, query):
        # An eigenvalue is useful when it can decide the event: it lies in
        # the decision window (the energy itself for the fixed kind) +- eps.
        lo, hi = query.window if query.window is not None else (query.energy,) * 2
        lo, hi = lo - query.eps, hi + query.eps
        for ev in self._spectra:
            inside = np.searchsorted(ev, hi, side="right") - np.searchsorted(ev, lo)
            self.counters["eig_useful"] += int(inside)
        self._spectra.clear()

    def _spectrum_done(self, args, kwargs, spectrum):
        dim = spectrum.dim
        self.counters["eig_calls"] += 1
        self.counters["eig_values"] += dim
        self.counters["eig_dim3"] += dim**3
        self._spectra.append(spectrum.eigenvalues)

    def _matrix_done(self, args, kwargs, matrix):
        self.counters["builds"] += 1
        self.counters["dense_bytes"] += 8 * matrix.dim**2

    def _field_done(self, args, kwargs, field):
        region = args[1] if len(args) > 1 else kwargs["region"]
        self.counters["field_points"] += len(region)

    def _lyapunov_done(self, args, kwargs, estimate):
        self.counters["transfer_steps"] += estimate.steps

    def counting_warnings(self, fn):
        """Wrap ``fn`` so that the warnings each call emits are counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            self.counters["count_below_retries"] += len(caught)
            return result

        return wrapper

    def install_campaign(self):
        """Trace the five trial layers and the CLI's config steps."""
        import wegnerlab.cli as cli
        import wegnerlab.lattice as lattice
        import wegnerlab.wegner as wegner

        cli.parse_config = self.span("config.parse", cli.parse_config)
        cli.validate_config = self.span("config.validate", cli.validate_config)
        cli.mc_estimate = self.span("row", cli.mc_estimate)
        wegner.evaluate_event = self.trial(wegner.evaluate_event)
        lattice.Cube.field_region = self.span("lattice", lattice.Cube.field_region)
        wegner.sample_field = self.span(
            "randomfield", wegner.sample_field, after=self._field_done
        )
        wegner.build_hamiltonian = self.span(
            "hamiltonian", wegner.build_hamiltonian, after=self._matrix_done
        )
        wegner.full_spectrum = self.span(
            "spectral", wegner.full_spectrum, after=self._spectrum_done
        )
        for name in ("fixed_energy_event", "variable_energy_event", "two_volume_event"):
            setattr(wegner, name, self.span("wegner", getattr(wegner, name)))

    def install_oracles(self):
        """Trace the verify suites, inertia counts and Lyapunov estimates."""
        import wegnerlab.spectral as spectral
        import wegnerlab.verify as verify

        spectral.count_below = self.counting_warnings(
            self.span("count_below", spectral.count_below)
        )
        verify.lyapunov = self.span(
            "transfer.lyapunov", verify.lyapunov, after=self._lyapunov_done
        )
        for name, suite in list(verify.ALL_SUITES.items()):
            verify.ALL_SUITES[name] = self.span(f"verify.{name}", suite)
