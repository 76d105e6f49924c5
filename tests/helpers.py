"""Matrix helpers the tests build from the public ``RatingsMatrix`` API,
and a reference check of a dataset's ``ratings`` rows."""

import math

from groupexplain import RatingsMatrix
from groupexplain.errors import (
    InvalidValueError,
    MalformedDatasetError,
    UnresolvedIdError,
)


def co_rated(matrix: RatingsMatrix, a: str, b: str) -> tuple[str, ...]:
    """Items rated by both users, ascending."""
    row_a, row_b = matrix.items_rated_by(a), matrix.items_rated_by(b)
    return tuple(sorted(row_a.keys() & row_b.keys()))


def without_item(matrix: RatingsMatrix, item: str) -> RatingsMatrix:
    """A new matrix with every rating of *item* removed."""
    return RatingsMatrix(
        (user, rated, value)
        for user in matrix.users()
        for rated, value in matrix.items_rated_by(user).items()
        if rated != item
    )


def checked_ratings(rows, users, items) -> list[tuple[str, str, float]]:
    """A ``ratings`` section checked one row, then one field, at a time.

    The reference for the loader's inline row check: per row, the shape,
    then the user id (a string, then a known one), the item id likewise,
    then the value (a number but not a bool, convertible to a float,
    finite, in [0, 5]). Raises what the loader raises, message included,
    for the first row that fails.
    """
    triples = []
    for index, row in enumerate(rows):
        where = f"ratings[{index}]"
        if not isinstance(row, list) or len(row) != 3:
            raise MalformedDatasetError(f"{where}: expected [user, item, value]")
        for ident, known, noun in ((row[0], users, "user"), (row[1], items, "item")):
            if not isinstance(ident, str):
                raise MalformedDatasetError(f"{where}: {noun} id must be a string")
            if ident not in known:
                raise UnresolvedIdError(f"{where}: unknown {noun} {ident!r}")
        value = row[2]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedDatasetError(f"{where}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise InvalidValueError(f"{where}: integer too large for a float") from None
        if not math.isfinite(number):
            raise InvalidValueError(f"{where}: {number} is not a finite number")
        if not 0.0 <= number <= 5.0:
            raise InvalidValueError(f"{where}: rating {number} outside [0, 5]")
        triples.append((row[0], row[1], number))
    return triples
