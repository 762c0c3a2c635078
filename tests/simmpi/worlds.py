"""Op tests that run on both carriers.

A test class derives from :class:`OnThreads` and calls ``self.spmd``
(``run_spmd`` on the class's world); :func:`process_twins` makes a
``<Name>Processes`` subclass of each that runs every test again on
forked rank processes.  The thread-world test ids stay the classes' own.
"""

from repro.simmpi import run_spmd


class OnThreads:
    world = "threads"

    def spmd(self, *args, **kwargs):
        return run_spmd(*args, world=self.world, **kwargs)


def process_twins(*classes) -> dict:
    """``{name: class}`` of the process-world twins, for the module's
    globals (where pytest collects them)."""
    return {
        f"{cls.__name__}Processes": type(
            f"{cls.__name__}Processes", (cls,), {"world": "processes"}
        )
        for cls in classes
    }
