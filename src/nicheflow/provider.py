"""Model-call abstraction: chat-style requests, cost metering, the evolver that
the model-driven evolution routes ask, an HTTP backend, and a deterministic
simulated model pool for fully offline runs.

The simulated backend recognizes a structured task envelope embedded in the
prompt text and answers it correctly with a per-domain probability that is a
pure function of (seed, model_id, request digest).
"""

import hashlib
import logging
import re
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Callable, Mapping, Optional, Protocol, Sequence, TypeVar

from . import canonical
from .errors import InvalidInput, ProviderError, UnknownModel
from .genome import ModelSpec

logger = logging.getLogger(__name__)
T = TypeVar("T")


# The keys every chat message has, and no others.
_MESSAGE_KEYS = {"content", "role"}


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    messages: tuple[Mapping[str, str], ...]
    temperature: float = 1.0

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise InvalidInput(f"model id must be a string, got {self.model_id!r}")
        if not self.messages:
            raise InvalidInput("chat request needs at least one message")
        if type(self.temperature) is not float:
            if isinstance(self.temperature, bool) or not isinstance(self.temperature, int):
                raise InvalidInput(f"temperature must be a number, got {self.temperature!r}")
            object.__setattr__(self, "temperature", float(self.temperature))
        if not (0.0 <= self.temperature <= 1.0):
            raise InvalidInput(f"temperature {self.temperature} out of [0,1]")
        for m in self.messages:
            if m.keys() != _MESSAGE_KEYS:
                raise InvalidInput(f"a message has exactly the keys role and content, got {sorted(m)}")
            if m["role"] not in ("system", "user", "assistant"):
                raise InvalidInput(f"bad message role {m['role']!r}")
            if not isinstance(m["content"], str):
                raise InvalidInput(f"message content must be a string, got {m['content']!r}")

    def digest(self) -> str:
        """blake2b of the request's canonical JSON text, the bytes
        ``canonical.dumps`` writes for ``{model, messages, temperature}``,
        built here directly without ``json.dumps`` and its key sort."""
        # Keys in sorted order. ``encode_basestring`` is the string encoder
        # ``json.dumps`` uses under ``ensure_ascii=False``, and ``json.dumps``
        # writes a finite float, as a checked temperature is, as its repr.
        messages = ",".join(
            f'{{"content":{encode_basestring(m["content"])},"role":{encode_basestring(m["role"])}}}'
            for m in self.messages
        )
        body = (
            f'{{"messages":[{messages}],"model":{encode_basestring(self.model_id)},'
            f'"temperature":{self.temperature!r}}}'
        )
        return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class ChatResponse:
    content: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise InvalidInput("token counts must be >= 0")

    def digest(self) -> str:
        body = canonical.dumps(
            [self.content, self.prompt_tokens, self.completion_tokens]
        )
        return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


class ModelProvider(Protocol):
    """A chat backend. ``evolve_step`` calls ``chat`` from several threads
    at once, so it must be thread-safe."""

    def chat(self, req: ChatRequest) -> ChatResponse: ...


@dataclass(frozen=True)
class Evolver:
    """The model that drives evolution itself: crossover offspring, model
    picks, prompt rewrites and tags all ask it through ``ask``.

    It keeps the reply to each prompt it has sent, so each distinct request
    goes out once for as long as it lives: ``make_evolver`` builds one per
    step, and one for a whole ``init_population``. On a backend that answers
    deterministically, as the simulated one does, a resent request would get
    the same reply, so this only saves calls. On a sampling backend, nodes
    that a step's model mutation picks with the same current model get the
    same pick."""

    provider: ModelProvider
    model_id: str
    _replies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ask(self, prompt: str, parse: Callable[[str], Optional[T]]) -> Optional[T]:
        """``parse`` of the reply to ``prompt``, sent once as a request and
        never retried. Returns None when the reply does not parse or the
        provider fails; callers then fall back to their rule-based route. A
        failed request is not kept, so the same prompt asked again is sent
        again."""
        if prompt not in self._replies:
            req = ChatRequest(
                model_id=self.model_id,
                messages=({"role": "user", "content": prompt},),
                temperature=1.0,
            )
            try:
                self._replies[prompt] = self.provider.chat(req).content
            except ProviderError as e:
                logger.warning("evolver model %s failed: %s", self.model_id, e)
                return None
        return parse(self._replies[prompt])


def call_cost(resp: ChatResponse, spec: ModelSpec) -> float:
    return (
        resp.prompt_tokens / 1e6 * spec.prompt_price
        + resp.completion_tokens / 1e6 * spec.completion_price
    )


# --- task envelope (simulated-backend test harness) --------------------------

_ENVELOPE_RE = re.compile(r"\[\[TASK id=(\S+) domain=(\S+) gold=(.*?)\]\]", re.DOTALL)


def make_task_envelope(query_id: str, domain: str, gold: str) -> str:
    return f"[[TASK id={query_id} domain={domain} gold={gold}]]"


def parse_task_envelope(text: str) -> Optional[tuple[str, str, str]]:
    m = _ENVELOPE_RE.search(text)
    if m is None:
        return None
    return m.group(1), m.group(2), m.group(3)


# --- simulated backend -------------------------------------------------------

@dataclass(frozen=True)
class SimModelProfile:
    """Offline stand-in for a hosted model: per-domain success probability and
    fixed token usage per call."""

    model_id: str
    success_by_domain: Mapping[str, float] = field(default_factory=dict)
    default_success: float = 0.5
    prompt_tokens: int = 200
    completion_tokens: int = 100

    def __post_init__(self):
        for domain, p in self.success_by_domain.items():
            if not 0.0 <= p <= 1.0:
                raise InvalidInput(f"success_by_domain must be in [0, 1]: {domain!r} has {p}")
        if not 0.0 <= self.default_success <= 1.0:
            raise InvalidInput(f"default_success must be in [0, 1], got {self.default_success}")
        for name in ("prompt_tokens", "completion_tokens"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0, got {getattr(self, name)}")

    def success_prob(self, domain: str) -> float:
        return self.success_by_domain.get(domain, self.default_success)


class SimulatedProvider:
    """Pure-function chat backend: identical (seed, request) always yields an
    identical response."""

    def __init__(self, profiles: Sequence[SimModelProfile], seed: int = 0):
        self.profiles = {p.model_id: p for p in profiles}
        self.seed = seed

    def _uniform(self, req: ChatRequest) -> float:
        material = f"{self.seed}|{req.digest()}".encode("utf-8")
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 256 ** len(digest)

    def chat(self, req: ChatRequest) -> ChatResponse:
        profile = self.profiles.get(req.model_id)
        if profile is None:
            raise UnknownModel(f"simulated pool has no model {req.model_id!r}")
        text = "\n".join(m.get("content", "") for m in req.messages)
        envelope = parse_task_envelope(text)
        if envelope is None:
            content = "Understood. Proceeding with the given instructions."
        else:
            _, domain, gold = envelope
            if self._uniform(req) < profile.success_prob(domain):
                content = f"Working through the problem, the final answer is {gold}."
            else:
                content = f"Working through the problem, the final answer is {_wrong_answer(gold)}."
        return ChatResponse(
            content=content,
            prompt_tokens=profile.prompt_tokens,
            completion_tokens=profile.completion_tokens,
        )


def _wrong_answer(gold: str) -> str:
    gold = gold.strip()
    try:
        return str(int(gold) + 1)
    except ValueError:
        pass
    try:
        return f"{float(gold) + 1.0:g}"
    except ValueError:
        return "indeterminate"


# --- HTTP backend ------------------------------------------------------------

# A request is tried up to MAX_ATTEMPTS times; after failed attempt k
# (counting from 0) the provider sleeps BACKOFF_BASE * 2**k seconds.
MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.5


class HttpProvider:
    """Chat-completion style HTTP client with bounded exponential backoff.

    Wire contract: POST {"model", "messages", "temperature"}; the reply is read
    from choices[0].message.content and usage.{prompt,completion}_tokens.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str = "",
        session=None,
        sleep=time.sleep,
    ):
        if session is None:
            import requests

            session = requests.Session()
        self.endpoint = endpoint
        self.api_key = api_key
        self.session = session
        self.sleep = sleep

    def chat(self, req: ChatRequest) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": req.model_id,
            "messages": [dict(m) for m in req.messages],
            "temperature": req.temperature,
        }
        last: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                resp = self.session.post(
                    self.endpoint, json=body, headers=headers, timeout=120
                )
                resp.raise_for_status()
                payload = resp.json()
                usage = payload.get("usage", {})
                return ChatResponse(
                    content=payload["choices"][0]["message"]["content"],
                    prompt_tokens=int(usage.get("prompt_tokens", 0)),
                    completion_tokens=int(usage.get("completion_tokens", 0)),
                )
            except Exception as e:  # noqa: BLE001 - transport errors are retried
                last = e
                if attempt + 1 < MAX_ATTEMPTS:
                    self.sleep(BACKOFF_BASE * (2**attempt))
        raise ProviderError(
            f"chat request failed after {MAX_ATTEMPTS} attempts",
            attempts=MAX_ATTEMPTS,
            last_error=last,
        )
