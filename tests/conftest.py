import pytest

from hamsurf.charts import DEFAULT_CHARTS, build_V, load_default_charts
from hamsurf.corecomplex import subcomplex
from hamsurf.cover import expand_ball, expand_to_radius
from hamsurf.hamgraph import moebius_ladder


@pytest.fixture(scope="session")
def chart_text():
    """The text of the chart file shipped inside the package."""
    return DEFAULT_CHARTS.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def chartdata():
    return load_default_charts()


@pytest.fixture(scope="session")
def V(chartdata):
    return build_V(chartdata)


@pytest.fixture(scope="session")
def S(chartdata, V):
    return subcomplex(V, chartdata.surface_faces("S"))


@pytest.fixture(scope="session")
def Sprime(chartdata, V):
    return subcomplex(V, chartdata.surface_faces("S'"))


@pytest.fixture(scope="session")
def ladder():
    return moebius_ladder()


@pytest.fixture(scope="session")
def ball1(V):
    return expand_to_radius(V, "P", 1)


@pytest.fixture(scope="session")
def ball2(V):
    return expand_to_radius(V, "P", 2)


@pytest.fixture(scope="session")
def ball3(ball2):
    return expand_ball(ball2)


@pytest.fixture(scope="session")
def ball4(ball3):
    return expand_ball(ball3)
