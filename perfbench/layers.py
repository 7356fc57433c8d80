"""Outside-in per-layer host-time tracing.

The program carries no host-time instrumentation, so the traced run wraps
the entry points of each layer from here.  A wrapper pushes a frame on
one shared stack when control enters its layer from another layer, and on
return charges the layer its *self* time: the frame's wall time minus the
time spent in wrapped layers beneath it.  A call that stays inside the
layer it was made from (a parser method calling another) is not timed
again; its time already belongs to that layer.

A function that returns a generator is a step function: each resumption
of the generator is timed as one entry into the layer, so a suspended
evaluation is not charged for the time it spends parked.

Functions imported by name (``from module import fn``) are patched in
every ``repro`` module that holds them, so callers that look them up
locally see the wrapper too.  :meth:`LayerTracer.uninstall` restores every
original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from types import GeneratorType

# (module, attribute path, layer).  A path naming a class wraps every
# method the class defines whose name starts with the given prefix, or
# every subclass's own definition of a method (for ``wire_size``).
ENTRY_POINTS = (
    ("repro.crypto.rsa", "generate_keypair", "crypto.keygen"),
    ("repro.crypto.rsa", "sign", "crypto.sign"),
    ("repro.crypto.rsa", "verify", "crypto.verify"),
    ("repro.crypto.canonical", "canonical_bytes", "crypto.canonical"),
    ("repro.crypto.canonical", "rule_signing_bytes", "crypto.canonical"),
    ("repro.datalog.lexer", "tokenize", "datalog.lex"),
    ("repro.datalog.parser", "parse_program", "datalog.parse"),
    ("repro.datalog.parser", "parse_rule", "datalog.parse"),
    ("repro.datalog.parser", "parse_literal", "datalog.parse"),
    ("repro.datalog.parser", "parse_goals", "datalog.parse"),
    ("repro.datalog.parser", "parse_term", "datalog.parse"),
    ("repro.datalog.parser", "Parser.parse_*", "datalog.parse"),
    ("repro.datalog.sld", "SLDEngine.query", "datalog.sld"),
    ("repro.datalog.sld", "SLDEngine.iter_query", "datalog.sld"),
    ("repro.datalog.sld", "SLDEngine.solve", "datalog.sld"),
    ("repro.negotiation.peer", "Peer.handle", "negotiation.peer"),
    ("repro.negotiation.peer", "Peer.answer_query_steps", "negotiation.peer"),
    ("repro.credentials.credential", "verify_credential", "credentials.verify"),
    ("repro.runtime.scheduler", "EventScheduler.run_until_idle",
     "runtime.scheduler"),
    ("repro.net.message", "*.wire_size", "net.wire_size"),
    ("repro.storage.store", "StateStore.put", "storage.put"),
    ("repro.storage.store", "StateStore.delete", "storage.put"),
    ("repro.storage.store", "StateStore.drop", "storage.put"),
    ("repro.storage.store", "DurableStore.checkpoint", "storage.checkpoint"),
    ("repro.storage.recovery", "crash_peer", "storage.recover"),
    ("repro.storage.recovery", "recover_peer", "storage.recover"),
    ("repro.obs.flightrec", "FlightRecorder.note", "obs.flightrec"),
)

LAYERS = tuple(dict.fromkeys(layer for _m, _p, layer in ENTRY_POINTS))


class LayerTracer:
    """Self time and entry counts per layer, from wrapped entry points."""

    def __init__(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.self_ns), dict(self.calls)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, layer: str):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        steps = self._steps

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                calls[layer] += 1
                frame = [layer, 0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_ns[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if type(result) is GeneratorType:
                return steps(result, layer)
            return result

        return wrapper

    def _steps(self, generator, layer: str):
        """Re-yield ``generator``'s items, timing each resumption."""
        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        value = None
        error = None
        while True:
            nested = bool(stack) and stack[-1][0] == layer
            if not nested:
                frame = [layer, 0]
                stack.append(frame)
                start = clock()
            try:
                if error is None:
                    item = generator.send(value)
                else:
                    pending, error = error, None
                    item = generator.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                if not nested:
                    elapsed = clock() - start
                    stack.pop()
                    self_ns[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                error = exc
                value = None

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, layer)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def _patch_methods(self, cls, pattern: str, layer: str) -> None:
        names = [name for name in list(vars(cls))
                 if name == pattern
                 or (pattern.endswith("*") and name.startswith(pattern[:-1]))]
        if not names:
            raise AttributeError(f"{cls.__name__} has no {pattern}")
        for name in names:
            self._set(cls, name, self._wrap(vars(cls)[name], layer))

    def install(self) -> None:
        if self._patches:
            return
        for module_name, path, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner, _, attr = path.rpartition(".")
            if not owner:
                self._patch_function(module, attr, layer)
            elif owner == "*":
                for value in list(vars(module).values()):
                    if (isinstance(value, type) and value.__module__ == module_name
                            and attr in vars(value)):
                        self._patch_methods(value, attr, layer)
            else:
                self._patch_methods(getattr(module, owner), attr, layer)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
