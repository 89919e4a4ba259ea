"""Interactive client-server negotiation of simulation parameters.

The paper closes with: "Future developments will address ... flexible
simulation setup with interactive client-server negotiation of
simulation parameters."  This module implements that extension: a
multi-round, stateful haggling protocol over estimator fees.

The provider quotes its list price per pattern; the client counters;
the provider concedes in bounded steps but never below a volume-scaled
floor.  Every message is an ordinary RMI call carrying only plain
values, so the protocol runs over both transports unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.errors import BillingError, RemoteError
from ..core.ids import current_connection, next_id


@dataclass(frozen=True)
class NegotiationOutcome:
    """The result of one negotiation session."""

    accepted: bool
    price_per_pattern: Optional[float]
    rounds: int
    reason: str = ""

    @property
    def total_for(self) -> Any:
        """Convenience: total fee for N patterns (callable)."""
        def compute(patterns: int) -> float:
            if not self.accepted or self.price_per_pattern is None:
                raise BillingError("no agreed price")
            return self.price_per_pattern * patterns
        return compute


class NegotiationServant:
    """Provider-side negotiation policy.

    List price comes from the component's estimator catalog; the floor
    is ``floor_fraction`` of list, further discounted for large volume
    commitments (``volume_break`` patterns halves the margin).  Each
    counter-offer below the provider's current quote is met by a bounded
    concession; sessions end by acceptance, or after ``max_rounds``.
    A session lives in the connection that opened it.
    """

    REMOTE_METHODS = ("open_session", "quote", "counter_offer", "accept",
                      "decline")

    def __init__(self, list_price: float, floor_fraction: float = 0.6,
                 volume_break: int = 1000, concession: float = 0.15,
                 max_rounds: int = 5):
        if not 0 < floor_fraction <= 1:
            raise BillingError("floor fraction must be in (0, 1]")
        self.list_price = list_price
        self.floor_fraction = floor_fraction
        self.volume_break = volume_break
        self.concession = concession
        self.max_rounds = max_rounds

    # -- remote methods ------------------------------------------------------

    def open_session(self, volume: int) -> str:
        """Start a session for an intended pattern volume; returns id."""
        if volume <= 0:
            raise RemoteError("volume must be positive")
        session_id = f"neg{next_id('negotiation')}"
        floor = self.list_price * self.floor_fraction
        if volume >= self.volume_break:
            # Large volume commitments halve the provider's floor.
            floor /= 2.0
        current_connection().sessions(self)[session_id] = {
            "volume": volume,
            "quote": self.list_price,
            "floor": floor,
            "rounds": 0,
            "open": True,
        }
        return session_id

    def quote(self, session_id: str) -> float:
        """The provider's current price per pattern."""
        return self._session(session_id)["quote"]

    def counter_offer(self, session_id: str, price: float) -> float:
        """Client counters; returns the provider's new quote.

        A counter at or above the current quote is simply accepted as
        the new quote.  Otherwise the provider concedes a bounded step
        toward the counter, never below the session floor.
        """
        session = self._session(session_id)
        session["rounds"] += 1
        if session["rounds"] > self.max_rounds:
            session["open"] = False
            raise RemoteError("negotiation round limit reached")
        current = session["quote"]
        if price >= current:
            session["quote"] = price if price < self.list_price \
                else self.list_price
            return session["quote"]
        conceded = max(current * (1 - self.concession), price,
                       session["floor"])
        session["quote"] = conceded
        return conceded

    def accept(self, session_id: str) -> float:
        """Client accepts the current quote; session closes."""
        session = self._session(session_id)
        session["open"] = False
        return session["quote"]

    def decline(self, session_id: str) -> None:
        """Client walks away; session closes."""
        self._session(session_id)["open"] = False

    def _session(self, session_id: str) -> Dict[str, Any]:
        session = current_connection().sessions(self).get(session_id)
        if session is None:
            raise RemoteError(f"unknown negotiation session "
                              f"{session_id!r}")
        if not session["open"]:
            raise RemoteError(f"negotiation session {session_id!r} is "
                              f"closed")
        return session


class InteractiveNegotiation:
    """Client-side haggling strategy against a NegotiationServant stub.

    Strategy: open with ``opening_fraction`` of the first quote, then
    split the difference toward each new quote until the quote reaches
    the target (accept) or stalls (accept if within tolerance, else
    decline).
    """

    def __init__(self, stub: Any, volume: int,
                 opening_fraction: float = 0.5):
        self.stub = stub
        self.volume = volume
        self.opening_fraction = opening_fraction

    def negotiate(self, target_price: float,
                  max_rounds: int = 5) -> NegotiationOutcome:
        """Run the protocol; returns the outcome (never raises on a
        failed deal -- declining is a normal outcome)."""
        session = self.stub.open_session(self.volume)
        quote = self.stub.quote(session)
        # Never offer above the target: the goal is a price at or under
        # it, so the split-the-difference ladder is clamped there.
        offer = min(quote * self.opening_fraction, target_price)
        rounds = 0
        last_quote = quote
        while rounds < max_rounds:
            rounds += 1
            if last_quote <= target_price:
                price = self.stub.accept(session)
                return NegotiationOutcome(True, price, rounds)
            try:
                new_quote = self.stub.counter_offer(session, offer)
            except RemoteError as exc:
                return NegotiationOutcome(False, None, rounds, str(exc))
            if new_quote >= last_quote - 1e-12:
                # The provider stopped conceding.
                if new_quote <= target_price * 1.10:
                    price = self.stub.accept(session)
                    return NegotiationOutcome(True, price, rounds,
                                              "within tolerance")
                self.stub.decline(session)
                return NegotiationOutcome(False, None, rounds,
                                          "provider floor above target")
            last_quote = new_quote
            offer = min((offer + new_quote) / 2.0, target_price)
        if last_quote <= target_price * 1.10:
            price = self.stub.accept(session)
            return NegotiationOutcome(True, price, rounds,
                                      "accepted at round limit")
        self.stub.decline(session)
        return NegotiationOutcome(False, None, rounds,
                                  "round limit reached")
