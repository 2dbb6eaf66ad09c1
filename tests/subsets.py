"""Subset helper shared by the test modules."""

from optmech import check_subset


def mask(*items):
    """The mask of the 1-based items ``items``: mask(1, 3) == 0b101."""
    return check_subset(items, max(items, default=0))
