"""scipy solvers that are imported on their first call.

``scipy.optimize`` and ``scipy.integrate`` bring in ``scipy.linalg``,
``sparse``, ``fft`` and ``spatial``: nearly 300 modules that the
closed-form commands (``singularity --table1``, ``classify``, ``sweep``)
never call.  :mod:`scatter1d.bessel`, :mod:`scatter1d.transfer` and
:mod:`scatter1d.shooting` bind these call-throughs under scipy's names.
They are defined here and not in those modules, so that each module's own
functions stay the ones it computes with (``perfbench/tracing.py`` wraps
every public function a module defines).
"""


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``."""
    import scipy.optimize
    return scipy.optimize.brentq(*args, **kwargs)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``."""
    import scipy.integrate
    return scipy.integrate.solve_ivp(*args, **kwargs)
