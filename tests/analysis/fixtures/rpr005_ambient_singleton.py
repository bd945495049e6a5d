"""RPR005 fixture: ambient singletons rebound through ``global``."""

_tracer = None
_registry = None
_slot = None


def install_tracer(tracer):
    global _tracer  # expect: RPR005
    previous = _tracer
    _tracer = tracer
    return previous


def reset():
    global _tracer, _registry  # expect: RPR005
    _tracer = _registry = None


def install(value):
    # repro: allow-RPR005 (fixture: the one reasoned slot)
    global _slot  # suppressed: RPR005
    _slot = value


def current():
    return _tracer, _registry, _slot  # negative: reading is fine
