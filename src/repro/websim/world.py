"""The assembled synthetic Internet.

:class:`World` wires together the domain population, ground-truth policies,
IP address plan, geolocation database, DNS, and per-provider edge behaviour,
and exposes a single entry point::

    response = world.fetch(request, client_ip)

``fetch`` reproduces the full decision chain a real request traverses:

1. national censorship at the client's network (a *confounder* the study
   must distinguish from geoblocking),
2. CDN-edge geoblocking (country rules applied to the geolocated client IP,
   including region-granular rules à la AppEngine/Crimea),
3. CDN challenge pages (captcha / JS challenge),
4. CDN bot detection (highly sensitive to the client's header profile —
   the §3.1 ZGrab false-positive effect),
5. origin-side GeoIP blocking with stock nginx/Varnish error pages, and
6. normal origin content with per-sample length jitter, behind optional
   http→https and apex→www redirects.

All randomness is derived from the world seed; a given fetch sequence is
bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.httpsim.messages import BodyPolicy, Headers, Request, Response
from repro.httpsim.useragent import looks_like_browser
from repro.netsim.dns import DNSServer
from repro.netsim.errors import ConnectionReset, ConnectionTimeout, FetchError
from repro.netsim.geoip import GeoIPDatabase
from repro.netsim.ip import AddressAllocator, Netblock
from repro.util.cache import LRUCache, MemoDict
from repro.util.counters import ShardedCounter
from repro.util.rng import derive_rng
from repro.websim import blockpages
from repro.websim.categories import CategoryTaxonomy
from repro.websim.content import (
    degrade_page,
    generate_page,
    jitter_length,
    jitter_pad,
    jitter_token,
    page_length,
    render_jitter,
    sample_jitter,
)
from repro.websim.countries import CountryRegistry
from repro.websim.domains import (
    AKAMAI,
    APPENGINE,
    BAIDU,
    CLOUDFLARE,
    CLOUDFRONT,
    Domain,
    DomainPopulation,
    INCAPSULA,
    ORIGIN,
    SOASTA,
)
from repro.websim.policies import GeoPolicy, PolicyConfig, PolicyModel

#: Per-profile probability that a bot-protected domain flags the request.
_BOT_TRIGGER = {
    "browser": 0.012,   # full browser header set (Lumscan, real browsers)
    "zgrab": 0.85,      # browser UA but no Accept-* fields
    "curl": 0.95,       # no browser UA at all
}
#: Probability that curl trips heuristics even on unprotected CDN domains.
_CURL_BASELINE_TRIGGER = 0.03

#: Bot-detection page served per provider when a request is flagged.
_BOT_PAGE = {
    AKAMAI: blockpages.AKAMAI_BLOCK,
    INCAPSULA: blockpages.INCAPSULA_BLOCK,
    CLOUDFLARE: blockpages.CLOUDFLARE_CAPTCHA,
    BAIDU: blockpages.BAIDU_CAPTCHA,
    SOASTA: blockpages.SOASTA_BLOCK,
}


def _residential_owner(country_code: str, region: Optional[str] = None) -> str:
    """Allocator owner of a country's (or one region's) residential space."""
    return f"res:{country_code}" if region is None else f"res:{country_code}:{region}"


def _classify_client(headers: Headers) -> str:
    """The bot-detection profile ("browser", "zgrab" or "curl") of a request."""
    if looks_like_browser(headers):
        return "browser"
    ua = headers.get("User-Agent", "")
    if ua and "curl" not in ua.lower() and "zgrab" not in ua.lower():
        return "zgrab"
    return "curl"


_IRAN_CENSOR_PAGE = (
    "<html><head><meta http-equiv=\"Content-Type\" content=\"text/html; "
    "charset=windows-1256\"><title>M1-4</title></head><body><iframe "
    "src=\"http://10.10.34.34?type=Invalid Site&policy=MainPolicy\" "
    "style=\"width: 100%; height: 100%\" scrolling=\"no\" marginwidth=\"0\" "
    "marginheight=\"0\" frameborder=\"0\" vspace=\"0\" hspace=\"0\"></iframe>"
    "</body></html>"
)


@dataclass(frozen=True)
class WorldConfig:
    """Construction parameters for a :class:`World`.

    ``size`` is the total ranked population.  Ranks 1..10,000 play the role
    of the Alexa Top 10K; the full population stands in for the Top 1M
    (scaled down — the tail CDN-customer *rates* match the paper, so every
    relative quantity is preserved; see DESIGN.md).
    """

    size: int = 60_000
    seed: int = 7
    geoip_error_rate: float = 0.004
    brand_family_size: int = 24
    country_codes: Optional[Tuple[str, ...]] = None
    policy: Optional[PolicyConfig] = None

    @classmethod
    def paper(cls, seed: int = 7) -> "WorldConfig":
        """Full-scale configuration used for EXPERIMENTS.md."""
        return cls(size=60_000, seed=seed)

    @classmethod
    def small(cls, seed: int = 7) -> "WorldConfig":
        """Mid-scale configuration for integration tests and benchmarks."""
        return cls(size=6_000, seed=seed)

    @classmethod
    def nano(cls, seed: int = 7) -> "WorldConfig":
        """Smallest useful configuration: 350 domains, 12 countries."""
        codes = ("US", "CN", "RU", "IR", "SY", "SD", "CU", "KP",
                 "DE", "BR", "NG", "IL")
        return cls(size=350, seed=seed, country_codes=codes,
                   brand_family_size=4)

    @classmethod
    def tiny(cls, seed: int = 7) -> "WorldConfig":
        """Fast configuration for unit tests: 1,200 domains, 28 countries."""
        codes = (
            "US", "CN", "RU", "IR", "SY", "SD", "CU", "KP", "DE", "GB",
            "FR", "BR", "NG", "IN", "UA", "TR", "JP", "AU", "CA", "IT",
            "EG", "KE", "NZ", "IL", "BY", "LV", "KH", "CH",
        )
        return cls(size=1_200, seed=seed, country_codes=codes,
                   brand_family_size=8)


class World:
    """A fully-assembled synthetic Internet."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        base_registry = CountryRegistry()
        if self.config.country_codes is not None:
            base_registry = base_registry.subset(list(self.config.country_codes))
        self.registry = base_registry
        self.taxonomy = CategoryTaxonomy()
        self.population = DomainPopulation.generate(
            size=self.config.size,
            seed=self.config.seed,
            taxonomy=self.taxonomy,
            brand_family_size=self.config.brand_family_size,
        )
        self.policy_model = PolicyModel(
            self.registry, config=self.config.policy, seed=self.config.seed)
        self.policies: Dict[str, GeoPolicy] = self.policy_model.assign(self.population)
        self.degradations = self.policy_model.assign_degradations(self.population)
        censorship = self.policy_model.assign_censorship(self.population)
        for name, censors in censorship.items():
            self.population.get(name).censored_in = censors
        self.censorship = censorship

        self.allocator = AddressAllocator(seed=self.config.seed)
        self.geoip = GeoIPDatabase(
            seed=self.config.seed, error_rate=self.config.geoip_error_rate)
        self._dns: Optional[DNSServer] = DNSServer()
        self._dns_loader = None
        self._appengine_cidrs: List[str] = []
        self._build_address_plan()
        self._build_dns()
        self._init_runtime()

    @classmethod
    def from_parts(cls, config: WorldConfig, *, population: DomainPopulation,
                   policies: Dict[str, GeoPolicy], degradations: Dict,
                   censorship: Dict[str, Tuple[str, ...]],
                   allocator: AddressAllocator, geoip: GeoIPDatabase,
                   dns: DNSServer, appengine_cidrs: List[str]) -> "World":
        """Assemble a world from pre-built immutable parts (pack loading).

        The parts must be exactly what ``World(config)``'s build phase
        would have produced — :mod:`repro.websim.worldpack` freezes and
        restores them; this constructor only wires them up and runs the
        normal mutable-runtime initialization, so every RNG stream,
        cache, and counter starts in the same state as a fresh build.
        ``dns`` may be a :class:`DNSServer` or a zero-argument loader
        returning one — the loader runs on first :attr:`dns` access, so
        workers (which resolve through the population, never through
        DNS) skip rebuilding the zone table entirely.
        """
        world = cls.__new__(cls)
        world.config = config
        base_registry = CountryRegistry()
        if config.country_codes is not None:
            base_registry = base_registry.subset(list(config.country_codes))
        world.registry = base_registry
        world.taxonomy = CategoryTaxonomy()
        world.population = population
        world.policy_model = PolicyModel(
            world.registry, config=config.policy, seed=config.seed)
        world.policies = policies
        world.degradations = degradations
        world.censorship = censorship
        world.allocator = allocator
        world.geoip = geoip
        if callable(dns):
            world._dns = None
            world._dns_loader = dns
        else:
            world._dns = dns
            world._dns_loader = None
        world._appengine_cidrs = list(appengine_cidrs)
        world._init_runtime()
        return world

    @property
    def dns(self) -> DNSServer:
        """The authoritative DNS (materialized lazily for pack worlds)."""
        if self._dns is None:
            self._dns = self._dns_loader()
            self._dns_loader = None
        return self._dns

    def _init_runtime(self) -> None:
        """Initialize the mutable, never-shared half of the world.

        Everything here is worker-private state: the shared RNG streams,
        page/length caches, clearance grants, and the fetch counter.  A
        pack-loaded world runs the identical initialization, which is
        what keeps its probe outcomes bit-identical to a fresh build.
        """
        #: How this world came to be: "build" (generated from config) or
        #: "pack" (thawed from a frozen worldpack).
        self.source = "build"
        self._noise_rng = derive_rng(self.config.seed, "fetch-noise")
        self._render_rng = derive_rng(self.config.seed, "render")
        # Sized to the population so a full scan never recomputes a page;
        # the floor keeps small test worlds from thrashing either.
        self._page_cache: LRUCache[str, str] = LRUCache(
            capacity=max(self.config.size, 20_000))
        # Lengths are 28-byte ints — an unbounded memo over the population
        # is cheaper than any eviction policy could ever be.  Clearance
        # grants are add-only and commutative, so both tables satisfy the
        # MemoDict idempotent-write contract on worker paths.  No length
        # is ever removed, so insertion order tells a worker which
        # lengths a chunk added (see page_lengths_since).
        self._page_length_cache: MemoDict[str, int] = MemoDict()
        self._clearances: MemoDict[str, set] = MemoDict()
        # Bot-detection profile per distinct request-header content.
        self._client_profiles: MemoDict[
            Tuple[Tuple[str, str], ...], str] = MemoDict()
        self._fetch_count = ShardedCounter()

    # ------------------------------------------------------------------ #
    # Construction

    def _build_address_plan(self) -> None:
        for country in self.registry:
            if country.luminati:
                owner = _residential_owner(country.code)
                for block in self.allocator.allocate(owner, 2):
                    self.geoip.register(block, country.code)
                for region in country.regions:
                    owner = _residential_owner(country.code, region)
                    for block in self.allocator.allocate(owner, 1):
                        self.geoip.register(block, country.code, region=region)
        for country in self.registry.vps_countries():
            for block in self.allocator.allocate(f"vps:{country.code}", 1):
                self.geoip.register(block, country.code)
        # Provider serving space.  AppEngine gets 65 blocks to mirror the
        # paper's netblock-discovery result.
        for provider in (CLOUDFLARE, AKAMAI, CLOUDFRONT, INCAPSULA, BAIDU, SOASTA):
            self.allocator.allocate(f"edge:{provider}", 4)
        appengine_blocks = self.allocator.allocate(f"edge:{APPENGINE}", 65)
        self._appengine_cidrs = [b.cidr for b in appengine_blocks]
        self.allocator.allocate("hosting:origin", 8)

    def _build_dns(self) -> None:
        rng = derive_rng(self.config.seed, "dns")
        # AppEngine netblock discovery chain (_cloud-netblocks walk).
        root = "_cloud-netblocks.googleusercontent.com"
        group_count = 5
        includes = " ".join(
            f"include:_cloud-netblocks{i + 1}.googleusercontent.com"
            for i in range(group_count)
        )
        self.dns.add_record(root, "TXT", f"v=spf1 {includes} ?all")
        for i in range(group_count):
            chunk = self._appengine_cidrs[i::group_count]
            tokens = " ".join(f"ip4:{cidr}" for cidr in chunk)
            self.dns.add_record(
                f"_cloud-netblocks{i + 1}.googleusercontent.com",
                "TXT", f"v=spf1 {tokens} ?all")

        for domain in self.population:
            provider = domain.provider
            if provider == CLOUDFLARE and rng.random() < 0.95:
                label = rng.choice(("ada", "bob", "cruz", "dana", "elma", "finn"))
                self.dns.add_record(domain.name, "NS", f"{label}.ns.cloudflare.com")
                self.dns.add_record(domain.name, "NS", f"{label}2.ns.cloudflare.com")
            elif provider == AKAMAI and rng.random() < 0.40:
                n = rng.randint(1, 13)
                self.dns.add_record(domain.name, "NS", f"a{n}-64.akam.net")
                self.dns.add_record(domain.name, "NS", f"a{n}-65.akam.net")
            else:
                self.dns.add_record(domain.name, "NS", f"ns1.{domain.name}")
            owner = f"edge:{provider}" if provider != ORIGIN else "hosting:origin"
            self.dns.add_record(domain.name, "A", self.allocator.random_address(owner, rng))

    # ------------------------------------------------------------------ #
    # Client address helpers

    def residential_address(self, country_code: str, rng=None,
                            region: Optional[str] = None) -> str:
        """A random residential address in a country (or named region)."""
        return self.allocator.random_address(
            _residential_owner(country_code, region), rng)

    def residential_blocks(self, country_code: str,
                           region: Optional[str] = None) -> List[Netblock]:
        """The netblocks :meth:`residential_address` draws from, in order."""
        owner = _residential_owner(country_code, region)
        blocks = self.allocator.blocks_of(owner)
        if not blocks:
            raise KeyError(f"no netblocks allocated to {owner!r}")
        return blocks

    def vps_address(self, country_code: str) -> str:
        """The (stable) datacenter address of the VPS in a country."""
        blocks = self.allocator.blocks_of(f"vps:{country_code}")
        if not blocks:
            raise KeyError(f"no VPS provisioned in {country_code}")
        return blocks[0].address_at(10)

    # ------------------------------------------------------------------ #
    # Fetch

    def fetch(self, request: Request, client_ip: str, epoch: int = 0,
              rng: Optional[random.Random] = None,
              body_policy: Optional[BodyPolicy] = None) -> Response:
        """Serve one HTTP request from the synthetic web.

        Raises a :class:`~repro.netsim.errors.FetchError` subclass when the
        request cannot produce an HTTP response (censorship resets/timeouts).

        When ``rng`` is given, every random draw this request makes (bot
        heuristics, body jitter, rendered page noise) comes from it instead
        of the world's shared sequential streams.  A caller that derives
        ``rng`` from the request's identity therefore gets an outcome that
        does not depend on what other traffic the world has served — the
        property the parallel scan engine's determinism contract rests on.

        ``body_policy`` lets a caller that only keeps *lengths* of large
        200-bodies (scan probes, OONI reports) ask for those bodies to be
        elided: the response then carries ``body_length`` and an empty
        ``body``.  Elision never changes what the streams see afterwards.
        On the shared noise stream the jitter token is still drawn, so the
        stream advances exactly as a materializing fetch would advance it;
        a task-private stream is discarded with the probe, so its trailing
        token draws are skipped.  Block pages, errors, and short pages
        always materialize.

        A ``HEAD`` request (CDN identification reads only headers) answers
        an origin 200 with the edge headers and ``Content-Type`` alone: no
        page is rendered, degraded, measured or jittered, so
        ``body_length`` stays None.  Block pages, challenges, bot pages and
        redirects are served as for ``GET``.  A ``HEAD`` must bring a
        task-private ``rng``: the draws it skips would otherwise shift the
        shared streams, so one on the shared streams raises ValueError.

        The client address is geolocated only where the answer is read:
        for a domain with a country policy or a degradation, and for a
        bot page (which names the country).  Censorship reads the true
        country only for a domain some country censors.  A lookup's only
        randomness is its address's own derived stream, never ``rng`` or
        a shared stream, so a lookup skipped or made later changes no
        response.
        """
        head = request.method == "HEAD"
        if head and rng is None:
            raise ValueError("HEAD requests need a task-private rng")
        self._fetch_count.increment()
        domain = self._resolve(request.url.host)
        if domain is None:
            raise FetchError(f"could not resolve {request.url.host}")
        if domain.dead:
            raise ConnectionTimeout(f"timeout fetching {request.url}")
        if domain.redirect_loop:
            response = Response(status=302, url=request.url)
            response.headers.add(
                "Location", f"{request.url.scheme}://{request.url.host}/loop")
            return response

        if domain.censored_in:
            true_country = self.geoip.true_country(client_ip)
            if true_country in domain.censored_in:
                return self._censor(true_country, request)

        policy = self.policies.get(domain.name)
        seen_country = seen_region = None
        if policy is not None:
            seen_country, seen_region = self._geolocate(client_ip)

        edge_headers = self._edge_headers(domain, request, rng)
        if policy is not None and policy.blocks(seen_country, seen_region, epoch):
            if policy.action == "drop":
                # Timeout-style geoblocking (§7.3): the origin silently
                # drops connections from blocked countries.
                raise ConnectionTimeout(f"timeout fetching {request.url}")
            return self._render_page(policy.block_page, domain, seen_country,
                                     edge_headers, rng)
        if request.url.path.startswith("/cdn-cgi/l/chk_"):
            # Challenge-solution endpoint (captcha answer / JS result).
            return self._solve_challenge(domain, request, edge_headers, rng)
        if (policy is not None and policy.challenges(seen_country)
                and not self._has_clearance(domain, request)):
            page = policy.challenge_page or blockpages.CLOUDFLARE_CAPTCHA
            return self._render_page(page, domain, seen_country, edge_headers,
                                     rng)

        if self._bot_flagged(domain, request, rng):
            page = self._bot_page(domain)
            country = seen_country or self._geolocate(client_ip)[0]
            return self._render_page(page, domain, country, edge_headers, rng)

        redirect = self._redirect_for(domain, request)
        if redirect is not None:
            response = Response(status=301, headers=edge_headers, url=request.url)
            response.headers.add("Location", redirect)
            response.body = (
                "<html><head><title>301 Moved Permanently</title></head>"
                "<body><h1>301 Moved Permanently</h1></body></html>"
            )
            return response

        headers = edge_headers
        headers.add("Content-Type", "text/html; charset=utf-8")
        if head:
            return Response(status=200, headers=headers, url=request.url)

        degradation = self.degradations.get(domain.name)
        if degradation is not None:
            seen_country = seen_country or self._geolocate(client_ip)[0]
        degraded = degradation is not None and degradation.applies(seen_country)

        noise = rng if rng is not None else self._noise_rng
        if body_policy is not None and body_policy.elides:
            if degraded:
                # Degraded combinations are sparse; materializing the base
                # is unavoidable (price rescaling shifts digit counts), but
                # the jitter concat can still be skipped for large pages.
                base = self._degraded_page(domain, degradation, seen_country)
                base_length = len(base)
            else:
                # Fast lane: the undegraded base length comes from the
                # cached length-only synthesis — no page string is ever
                # built unless the jittered result lands under the keep
                # threshold.
                base = None
                base_length = self._page_length(domain)
            pad = jitter_pad(base_length, noise)
            body_length = jitter_length(base_length, pad)
            if body_length > body_policy.length_threshold:
                if rng is None:
                    # Keep the shared stream in step with sample_jitter.
                    jitter_token(noise)
                return Response(status=200, headers=headers, url=request.url,
                                body_length=body_length)
            if base is None:
                base = self._page(domain)
            body = render_jitter(base, pad, jitter_token(noise))
            return Response(status=200, headers=headers, body=body,
                            url=request.url)

        base = (self._degraded_page(domain, degradation, seen_country)
                if degraded else self._page(domain))
        body = sample_jitter(base, noise)
        return Response(status=200, headers=headers, body=body, url=request.url)

    @property
    def fetch_count(self) -> int:
        """Total requests served, including absorbed process-worker fetches."""
        return self._fetch_count.value

    def add_external_fetches(self, count: int) -> None:
        """Fold in fetches served by a worker process's world replica."""
        self._fetch_count.add(count)

    # ------------------------------------------------------------------ #
    # Internals

    def _geolocate(self, client_ip: str) -> Tuple[str, Optional[str]]:
        """The (country, region) the edge's GeoIP database gives the client.

        Unregistered space is ("ZZ", None).
        """
        geo = self.geoip.lookup(client_ip)
        return (geo.country, geo.region) if geo else ("ZZ", None)

    def _page(self, domain: Domain) -> str:
        """The domain's canonical (undegraded) front page, cached.

        The page is a pure function of (seed, domain), so a concurrent
        double-compute under threads is benign: both threads produce and
        store the identical string.
        """
        base = self._page_cache.get(domain.name)
        if base is None:
            base = generate_page(domain.name, domain.category,
                                 seed=self.config.seed)
            self._page_cache.put(domain.name, base)
        return base

    def _degraded_page(self, domain: Domain, degradation,
                       country: str) -> str:
        """The domain's front page as degraded for ``country``."""
        return degrade_page(
            self._page(domain),
            remove_account=country in degradation.remove_account_countries,
            price_multiplier=degradation.price_multipliers.get(country, 1.0),
        )

    def _page_length(self, domain: Domain) -> int:
        """``len(self._page(domain))`` without materializing the page."""
        length = self._page_length_cache.get(domain.name)
        if length is None:
            cached = self._page_cache.get(domain.name)
            if cached is not None:
                length = len(cached)
            else:
                length = page_length(domain.name, domain.category,
                                     seed=self.config.seed)
            self._page_length_cache[domain.name] = length
        return length

    def known_page_lengths(self, names: Iterable[str]) -> Dict[str, int]:
        """The memoized base-page lengths among the domains ``names``."""
        cache = self._page_length_cache
        return {name: cache[name] for name in names if name in cache}

    def learn_page_lengths(self, lengths: Mapping[str, int]) -> None:
        """Memoize base-page lengths another replica of this world computed.

        Lengths are pure functions of (seed, domain), so a learned value
        always equals the one this world would compute.
        """
        self._page_length_cache.update(lengths)

    def page_length_mark(self) -> int:
        """A mark for :meth:`page_lengths_since`: the memo's size now."""
        return len(self._page_length_cache)

    def page_lengths_since(self, mark: int) -> Dict[str, int]:
        """The lengths memoized after :meth:`page_length_mark` gave ``mark``.

        The memo only grows, in insertion order, so they are its last
        entries; reading them costs nothing per probe.
        """
        added = islice(reversed(self._page_length_cache.items()),
                       len(self._page_length_cache) - mark)
        return dict(reversed(list(added)))

    def _resolve(self, host: str) -> Optional[Domain]:
        name = host.lower()
        if name.startswith("www."):
            name = name[4:]
        try:
            return self.population.get(name)
        except KeyError:
            return None

    def _censor(self, country: str, request: Request) -> Response:
        if country == "IR":
            headers = Headers([("Content-Type", "text/html"),
                               ("Server", "squid/3.3.8")])
            return Response(status=403, headers=headers, body=_IRAN_CENSOR_PAGE,
                            url=request.url)
        if country == "CN":
            raise ConnectionReset(f"connection reset fetching {request.url}")
        raise ConnectionTimeout(f"timeout fetching {request.url}")

    def _edge_headers(self, domain: Domain, request: Request,
                      rng: Optional[random.Random] = None) -> Headers:
        render = rng if rng is not None else self._render_rng
        items = [("Date", "Tue, 10 Jul 2018 00:00:00 GMT")]
        for provider in domain.providers():
            if provider == CLOUDFLARE:
                ray = f"{render.getrandbits(48):012x}"
                items.append(("CF-RAY", f"{ray}-SIM"))
                items.append(("Server", "cloudflare"))
            elif provider == CLOUDFRONT:
                items.append(("X-Amz-Cf-Id", f"{render.getrandbits(64):016x}"))
                items.append(("Via", "1.1 sim.cloudfront.net (CloudFront)"))
            elif provider == INCAPSULA:
                items.append(("X-Iinfo", f"1-{render.getrandbits(30)} NNNN CT"))
            elif provider == AKAMAI:
                pragma = request.headers.get("Pragma", "")
                if "akamai-x-cache-on" in pragma:
                    items.append(("X-Cache",
                                  "TCP_HIT from a23-1.deploy.akamaitechnologies.com"))
                    items.append(("X-Cache-Key", f"/L/1/{domain.name}/"))
                    items.append(("X-Check-Cacheable", "YES"))
            elif provider == APPENGINE:
                items.append(("Server", "Google Frontend"))
        return Headers(items)

    def _bot_flagged(self, domain: Domain, request: Request,
                     rng: Optional[random.Random] = None) -> bool:
        noise = rng if rng is not None else self._noise_rng
        profile = self._client_profile(request.headers)
        if domain.bot_protection:
            return noise.random() < _BOT_TRIGGER[profile]
        if profile == "curl" and domain.is_cdn_fronted:
            return noise.random() < _CURL_BASELINE_TRIGGER
        return False

    def _client_profile(self, headers: Headers) -> str:
        # A scan sends one or two distinct header sets, so the profile is
        # memoized on the headers' content (not their identity: a
        # Headers object may be mutated between requests).
        key = headers.content_key()
        profile = self._client_profiles.get(key)
        if profile is None:
            profile = _classify_client(headers)
            self._client_profiles[key] = profile
        return profile

    def _bot_page(self, domain: Domain) -> str:
        if domain.origin_server == "distil":
            return blockpages.DISTIL_CAPTCHA
        for provider in domain.providers():
            page = _BOT_PAGE.get(provider)
            if page is not None:
                return page
        return blockpages.NGINX_403

    def _solve_challenge(self, domain: Domain, request: Request,
                         edge_headers: Headers,
                         rng: Optional[random.Random] = None) -> Response:
        """Handle ``/cdn-cgi/l/chk_jschl`` / ``chk_captcha`` submissions.

        A well-formed submission (the hidden fields a JS-running browser or
        a human solver would echo back) earns a clearance cookie; the next
        request with that cookie bypasses the challenge.  Header-only
        crawlers never reach this endpoint, which is the entire point of
        challenge pages.
        """
        params = dict(
            pair.partition("=")[::2]
            for pair in request.url.query.split("&") if pair)
        well_formed = (
            ("jschl_vc" in params and "jschl_answer" in params)
            or "id" in params
        )
        if not well_formed:
            return self._render_page(blockpages.CLOUDFLARE_CAPTCHA, domain,
                                     "ZZ", edge_headers, rng)
        render = rng if rng is not None else self._render_rng
        token = f"{render.getrandbits(80):020x}"
        self._clearances.setdefault(domain.name, set()).add(token)
        response = Response(status=302, headers=edge_headers, url=request.url)
        response.headers.add("Location", f"{request.url.scheme}://{request.url.host}/")
        response.headers.add(
            "Set-Cookie",
            f"cf_clearance={token}; path=/; expires=...; HttpOnly")
        response.body = ""
        return response

    def _has_clearance(self, domain: Domain, request: Request) -> bool:
        cookie = request.headers.get("Cookie", "")
        tokens = self._clearances.get(domain.name)
        if not tokens or not cookie:
            return False
        for pair in cookie.split(";"):
            name, _, value = pair.strip().partition("=")
            if name == "cf_clearance" and value in tokens:
                return True
        return False

    def _redirect_for(self, domain: Domain, request: Request) -> Optional[str]:
        url = request.url
        if domain.https_redirect and url.scheme == "http":
            return f"https://{url.host}{url.path}"
        if domain.www_redirect and not url.host.startswith("www."):
            return f"{url.scheme}://www.{url.host}{url.path}"
        return None

    def _render_page(self, page_type: str, domain: Domain, country: str,
                     edge_headers: Headers,
                     rng: Optional[random.Random] = None) -> Response:
        render = rng if rng is not None else self._render_rng
        rendered = blockpages.render(page_type, render, domain.name, country)
        headers = edge_headers
        for name, value in rendered.extra_headers:
            headers.add(name, value)
        headers.add("Content-Type", "text/html; charset=utf-8")
        return Response(status=rendered.status, headers=headers, body=rendered.body)

    # ------------------------------------------------------------------ #
    # Ground-truth accessors (for evaluation only — the measurement
    # pipeline never reads these).

    def is_geoblocked(self, domain_name: str, country_code: str, epoch: int = 0) -> bool:
        """Ground truth: does the domain block the country at ``epoch``?"""
        policy = self.policies.get(domain_name)
        return policy is not None and policy.blocks(country_code, None, epoch)

    def geoblocking_domains(self, epoch: int = 0) -> List[str]:
        """Names of all domains with an active geoblocking policy."""
        return [name for name, policy in self.policies.items()
                if policy.is_geoblocking and policy.active(epoch)]
