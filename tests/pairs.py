"""The locations-and-heights law in the two-class pair form that tests
were first written in: ``pair`` names the classes of the (location <= s,
height <= u_n(x)) and (location <= t, height <= u_n(y)) constraints."""
from gapextremes.limit_laws import locations_heights_cdf

PAIRS = {
    "obs_missed": ("observed", "missed"),
    "obs_all": ("observed", "all"),
    "missed_all": ("missed", "all"),
}


def pair_cdf(params, pair, s, t, x, y):
    first, second = PAIRS[pair]
    return locations_heights_cdf(params, {first: s, second: t}, {first: x, second: y})
