"""Exception hierarchy for the PeerTrust reproduction.

Every error raised by the library derives from :class:`PeerTrustError`, so
callers can catch a single base class at API boundaries.  Subsystems define
narrower classes below so tests and applications can distinguish, e.g., a
parse failure from a signature failure.
"""

from __future__ import annotations


class PeerTrustError(Exception):
    """Base class of every exception raised by this library."""


class ParseError(PeerTrustError):
    """Raised when PeerTrust source text cannot be tokenised or parsed.

    Carries the ``line`` and ``column`` (1-based) of the offending token when
    available, so callers can produce caret diagnostics.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column


class UnificationError(PeerTrustError):
    """Raised for malformed unification inputs (not for ordinary mismatch)."""


class EvaluationError(PeerTrustError):
    """Raised when the logic engine encounters an unrecoverable condition."""


class DepthLimitExceeded(EvaluationError):
    """Raised when SLD resolution exceeds its configured depth bound."""


class UnknownPredicateError(EvaluationError):
    """Raised when a goal references a predicate with no rules, facts, or
    builtin registration and the engine is configured to treat that as an
    error rather than silent failure."""


class BuiltinError(EvaluationError):
    """Raised when a builtin predicate is called with unusable arguments,
    e.g. comparing unbound variables."""


class StratificationError(PeerTrustError):
    """Raised when a program using negation cannot be stratified."""


class CryptoError(PeerTrustError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """Raised when a digital signature fails verification."""


class KeyError_(CryptoError):
    """Raised for malformed or missing keys (named with a trailing underscore
    to avoid shadowing the builtin :class:`KeyError`)."""


class CredentialError(PeerTrustError):
    """Base class for credential-layer failures."""


class ExpiredCredentialError(CredentialError):
    """Raised when a credential or access token is outside its validity window."""


class NetworkError(PeerTrustError):
    """Base class for transport-layer failures."""


class TransientNetworkError(NetworkError):
    """A delivery failure that may succeed on retry: a dropped message, a
    lost reply, a peer that is momentarily down.  The transport retries
    these (under its :class:`repro.net.transport.RetryPolicy`); once retries
    are exhausted the error reaches the caller, which fails the affected
    proof branch — shrinking the answer set, never corrupting it."""


class PeerUnavailableError(TransientNetworkError):
    """Raised when the target peer is crashed/partitioned.  Transient: the
    peer may restart within a fault plan's crash window, so retries with
    backoff can outlast the outage."""


class DeadlineExceeded(NetworkError):
    """Raised when a session's simulated-ms deadline budget is exhausted.
    Not transient — retrying cannot buy time back — and not swallowed as a
    branch failure: it propagates to the negotiation driver, which converts
    it into a clean :class:`NegotiationFailure` outcome."""


class UnknownPeerError(NetworkError):
    """Raised when a message is addressed to a peer that is not registered."""


class ProtocolError(NetworkError):
    """Raised when a message violates the negotiation protocol's state
    machine — e.g. an :class:`repro.net.message.AnswerMessage` arriving for
    a query that has no pending continuation (unknown id, or one that was
    already resumed).  Deterministic and non-retryable: it indicates a
    forged, stale, or misrouted reply, never network weather."""


class MessageTooLargeError(NetworkError):
    """Raised when a message exceeds the transport's configured size limit.
    Deterministic — the same message is oversized every time — so it is
    never retried and never treated as a droppable transient."""


class NegotiationError(PeerTrustError):
    """Base class for negotiation-runtime failures."""


class NegotiationFailure(NegotiationError):
    """Raised (or recorded) when a negotiation terminates without granting
    access.  This is an expected outcome, not a bug: policies simply were not
    satisfiable."""


class NegotiationLoopDetected(NegotiationError):
    """Raised internally when the same (asker, askee, goal) is re-entered;
    the engine converts this to failure of that proof branch."""


class ReleaseDenied(NegotiationError):
    """Raised when a peer refuses to release a statement because no release
    policy authorises the requester."""


class ProofError(NegotiationError):
    """Raised when a certified proof fails independent re-verification."""


class PolicyError(PeerTrustError):
    """Raised for ill-formed policies (e.g. UniPro definitions that reference
    undefined policy names)."""


class RDFError(PeerTrustError):
    """Raised when RDF input cannot be parsed or mapped to facts."""


class StorageError(PeerTrustError):
    """Raised for state-store failures: an unknown backend name, a corrupt
    snapshot file, or an operation on a closed store.  A torn trailing
    journal line is *not* an error — recovery discards it (the crash
    interrupted that append) and reports it in the store's recovery stats."""
