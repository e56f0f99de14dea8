"""Spans and counters for one benchmark child process, recorded from outside
the package.

The tracer wraps public functions of the ``fchsim`` modules and the
``numpy.fft`` / ``scipy.fft`` entry points.  A wrapped function is replaced in
its defining module and in every ``fchsim`` module that imported the name with
``from .x import y`` (``integrate`` does this for ``apply_filter``,
``ch_nonlinear_term`` and ``leray_project``), so calls made through either
name are seen.  Spans are kept in memory and reduced to per-function totals
when the child ends.
"""

import functools
import importlib
import os
import sys
import time

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# Public functions timed in a traced child, by fchsim module.  ``runner`` is
# whichever entry of experiments.RUNNERS the scenario dispatches to.
TRACED = {
    "config": ("load_experiment_config",),
    "experiments": ("runner", "make_datum", "write_energy_csv", "write_report"),
    "spectral": ("SpectralGrid", "transform", "to_spectral", "to_physical",
                 "fractional_laplacian", "dealias"),
    "helmholtz": ("apply_filter",),
    "fields": ("ch_nonlinear_term", "advection_term", "leray_project"),
    "integrate": ("run", "prepare_initial_state", "band_random"),
    "diagnostics": ("record_energy", "lp_norm", "solution_distance"),
    "checkpoint": ("save_checkpoint",),
}

# What an untraced child still needs: when the state is ready for the first
# step (setup time) and how many steps the runs took.  Both functions are
# called once per integration, so the hooks cost nothing measurable.
UNTRACED = {"integrate": ("run", "prepare_initial_state")}

RUN = "integrate.run"
PREPARE = "integrate.prepare_initial_state"
# Work done inside integrate.run that is not a time step.
NOT_STEP = (PREPARE, "diagnostics.record_energy")


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent index, size]``; ``size`` is the
    input element count of an FFT call, the bytes written by a checkpoint save
    and the step count returned by ``integrate.run``.  Times come from
    ``time.monotonic``, which other processes on the machine share, so the
    parent can subtract its own spawn time from them.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.fft_modules = set()

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, 0])
        self._stack.append(index)
        return index

    def close(self, index, size=0):
        span = self.spans[index]
        span[2] = time.monotonic()
        span[4] = size
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Time `fn` as a span called `name`; ``after(args, kwargs, result)``
        returns the span's size."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            size = 0
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    size = after(args, kwargs, result)
            finally:
                self.close(index, size)
            return result

        return traced

    def summary(self):
        """Per-function calls and self time, FFT counts, step totals, and
        ``ready``: when the first initial state was ready (end of set-up)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions = {}
        fft = {"calls": 0, "self_s": 0.0, "step_calls": 0, "step_elems": 0}
        steps = 0
        step_s = 0.0
        checkpoint_bytes = 0
        ready = None
        for i, (name, start, end, parent, size) in enumerate(spans):
            self_s = end - start - child_time[i]
            if name == "fft":
                fft["calls"] += 1
                fft["self_s"] += self_s
                if self._in_step(i):
                    fft["step_calls"] += 1
                    fft["step_elems"] += size
                continue
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            if name == RUN:
                steps += size
                step_s += end - start
            elif name == "checkpoint.save_checkpoint":
                checkpoint_bytes += size
            elif name in NOT_STEP and parent >= 0 and spans[parent][0] == RUN:
                step_s -= end - start
            if name == PREPARE and ready is None:
                ready = end
        return {"functions": functions, "fft": fft, "steps": steps,
                "step_s": step_s, "checkpoint_bytes": checkpoint_bytes,
                "ready": ready, "fft_modules": sorted(self.fft_modules)}

    def _in_step(self, index):
        """True when the span sits inside integrate.run but not inside its
        set-up or sampling calls."""
        parent = self.spans[index][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name in NOT_STEP:
                return False
            if name == RUN:
                return True
            parent = self.spans[parent][3]
        return False


def _fft_counter(tracer, module_name):
    def after(args, kwargs, result):
        tracer.fft_modules.add(module_name)
        data = args[0] if args else kwargs.get("a", kwargs.get("x"))
        return int(getattr(data, "size", 0))

    return after


def _checkpoint_size(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


def _run_steps(args, kwargs, result):
    return int(result.steps)


_AFTER = {
    "integrate.run": _run_steps,
    "checkpoint.save_checkpoint": _checkpoint_size,
}


def install_fft_counter(tracer):
    """Wrap the transform entry points of numpy.fft and scipy.fft.

    Call this before fchsim is imported, so that a module binding a transform
    by name at import time still binds the wrapper.
    """
    for module_name in FFT_MODULES:
        module = importlib.import_module(module_name)
        for name in FFT_NAMES:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            setattr(module, name,
                    tracer.wrap("fft", fn, _fft_counter(tracer, module_name)))


def _replace_everywhere(original, replacement):
    """Rebind every fchsim module attribute that is `original`."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "fchsim" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer, targets):
    """Wrap the fchsim functions named in `targets` ({module: names})."""
    for module_name, names in targets.items():
        module = importlib.import_module("fchsim." + module_name)
        for name in names:
            label = f"{module_name}.{name}"
            if name == "runner":
                wrapped = {}
                for key, fn in list(module.RUNNERS.items()):
                    if fn not in wrapped:
                        wrapped[fn] = tracer.wrap(label, fn)
                        _replace_everywhere(fn, wrapped[fn])
                    module.RUNNERS[key] = wrapped[fn]
                continue
            original = getattr(module, name)
            if isinstance(original, type):
                # Replacing the class would break isinstance checks, so its
                # constructor is timed instead.
                original.__init__ = tracer.wrap(label, original.__init__)
                continue
            _replace_everywhere(original, tracer.wrap(label, original,
                                                      _AFTER.get(label)))
