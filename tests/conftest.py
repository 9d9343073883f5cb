"""Settings shared by the whole suite."""

from hypothesis import Phase, settings

# Every property test draws the same examples on every run, with no per-example
# deadline, and reports a failing example as found instead of shrinking it:
# shrinking an exact-arithmetic counterexample can run far past the suite's
# time budget, so a fault would read as a hang rather than a failure.
settings.register_profile(
    "symdef",
    derandomize=True,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("symdef")
