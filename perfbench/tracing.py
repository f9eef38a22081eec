"""Per-function spans over the spherecover modules, installed from outside.

``Tracer.install()`` wraps every function and method defined in the traced
modules and rebinds each name in every loaded ``spherecover`` module, so a
call through ``from .geometry import angle_between`` is traced as well.
Spans are aggregated in memory per name: call count, self time (span time
minus the time of its child spans) and exceptions raised, by class name.
``uninstall()`` puts the original objects back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("geometry", "arrangement", "generators", "surface", "surgery",
           "normalize", "oracle", "io")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.raised = Counter()  # (span name, exception class name) -> count
        self._child = [0.0]      # per open span: time covered by its children
        self._undo = []

    def wrap(self, name, fn):
        calls, self_s, raised, child = self.calls, self.self_s, self.raised, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                raised[name, type(err).__name__] += 1
                raise
            finally:
                dt = clock() - t0
                self_s[name] += dt - child.pop()
                child[-1] += dt
                calls[name] += 1
        return traced

    def install(self):
        replaced = {}  # id(original function) -> wrapper
        for mod_name in MODULES:
            mod = sys.modules.get("spherecover." + mod_name)
            if mod is None:
                raise RuntimeError("spherecover.%s is not imported" % mod_name)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap("%s.%s" % (mod_name, attr), obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods("%s.%s" % (mod_name, attr), obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spherecover" and not mod_name.startswith("spherecover."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, obj, replaced[id(obj)])

    def _wrap_methods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            # construction is reported under the class name itself
            name = prefix if attr == "__init__" else "%s.%s" % (prefix, attr)
            if inspect.isfunction(obj):
                self._set(cls, attr, obj, self.wrap(name, obj))
            elif isinstance(obj, (staticmethod, classmethod)):
                self._set(cls, attr, obj, type(obj)(self.wrap(name, obj.__func__)))

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def module_self_s(self, mod_name) -> float:
        prefix = mod_name + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))
