import numpy as np
import pytest

from zkbstrip import StripGeometry, run


def final_field(u0, cfg):
    """The Field of the last sample of ``run(u0, cfg)``."""
    fields = []
    run(u0, cfg, observer=lambda sample, u: fields.append(u))
    return fields[-1]


@pytest.fixture(scope="session")
def paper_ref():
    """Reference decay run (B=pi, Lx=30, 1024x32, t_end=40), computed once.

    Takes about a minute and a half; shared by the energy-identity and
    weighted-decay acceptance criteria.
    """
    from zkbstrip.cli import paper_ref_run

    return paper_ref_run()


@pytest.fixture
def small_geom():
    return StripGeometry(B=np.pi, Lx=10.0, Nx=128, Ny=16, b=0.1)
