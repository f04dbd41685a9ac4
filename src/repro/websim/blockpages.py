"""Block-page, captcha, and challenge templates for each provider.

Section 4.1.3 of the paper clusters candidate pages and hand-labels 14 page
types: Akamai, Cloudflare (geoblock), AppEngine, Cloudflare Captcha,
Cloudflare JavaScript challenge, Amazon CloudFront, Baidu Captcha, Baidu,
Incapsula, SOASTA, Airbnb, Distil Captcha, nginx 403 and Varnish 403.

Five of those *explicitly* signal geoblocking (Cloudflare, CloudFront,
Baidu, AppEngine, Airbnb); the rest are either ambiguous (Akamai, Incapsula,
SOASTA, nginx, Varnish) or challenges (captchas, JS).

Each template renders HTML in the style of the real page, with per-instance
identifiers (Ray IDs, incident IDs, reference numbers) so that exact-match
classification would fail — the fingerprint layer must use robust markers,
exactly as the paper's signature extraction does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

# Canonical page-type identifiers (match Table 2 rows).
AKAMAI_BLOCK = "akamai"
CLOUDFLARE_BLOCK = "cloudflare"
APPENGINE_BLOCK = "appengine"
CLOUDFLARE_CAPTCHA = "cloudflare_captcha"
CLOUDFLARE_JS = "cloudflare_js"
CLOUDFRONT_BLOCK = "cloudfront"
BAIDU_CAPTCHA = "baidu_captcha"
BAIDU_BLOCK = "baidu"
INCAPSULA_BLOCK = "incapsula"
SOASTA_BLOCK = "soasta"
AIRBNB_BLOCK = "airbnb"
DISTIL_CAPTCHA = "distil_captcha"
NGINX_403 = "nginx"
VARNISH_403 = "varnish"

#: RFC 7725 legal-reasons page: served by a handful of origins, observed
#: only twice in the paper, and NOT among the 14 fingerprinted types —
#: the pipeline is expected to miss it, as the real one largely did.
NGINX_451 = "nginx_451"

ALL_PAGE_TYPES = (
    AKAMAI_BLOCK, CLOUDFLARE_BLOCK, APPENGINE_BLOCK, CLOUDFLARE_CAPTCHA,
    CLOUDFLARE_JS, CLOUDFRONT_BLOCK, BAIDU_CAPTCHA, BAIDU_BLOCK,
    INCAPSULA_BLOCK, SOASTA_BLOCK, AIRBNB_BLOCK, DISTIL_CAPTCHA,
    NGINX_403, VARNISH_403,
)

#: Page types that explicitly state the block is geographic (§4.1.3).
EXPLICIT_GEOBLOCK_TYPES = (
    CLOUDFLARE_BLOCK, CLOUDFRONT_BLOCK, BAIDU_BLOCK, APPENGINE_BLOCK, AIRBNB_BLOCK,
)

#: Challenge pages: not blocks, but friction that a human could pass.
CHALLENGE_TYPES = (CLOUDFLARE_CAPTCHA, CLOUDFLARE_JS, BAIDU_CAPTCHA, DISTIL_CAPTCHA)

#: Ambiguous block pages also served for bot detection / other errors.
AMBIGUOUS_TYPES = (AKAMAI_BLOCK, INCAPSULA_BLOCK, SOASTA_BLOCK, NGINX_403, VARNISH_403)


@dataclass(frozen=True)
class RenderedPage:
    """A rendered block/challenge page ready to ship in a Response."""

    page_type: str
    status: int
    body: str
    extra_headers: Tuple[Tuple[str, str], ...] = ()


def _hex(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(n))


def _digits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(n))


_HTML_SHELL = (
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
    "<title>{title}</title>\n{head_extra}</head>\n<body>\n{body}\n</body>\n</html>\n"
)


def render_akamai(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Akamai's generic 'Access Denied' page (also served for bot hits)."""
    reference = f"18.{_hex(rng, 8)}.{_digits(rng, 10)}.{_hex(rng, 7)}"
    body = _HTML_SHELL.format(
        title="Access Denied",
        head_extra="",
        body=(
            "<h1>Access Denied</h1>\n"
            f"<p>You don't have permission to access \"http://{host}/\" "
            "on this server.</p>\n"
            f"<p>Reference&#32;#{reference}</p>"
        ),
    )
    return RenderedPage(AKAMAI_BLOCK, 403, body,
                        (("Server", "AkamaiGHost"), ("Mime-Version", "1.0")))


def render_cloudflare_block(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Cloudflare error 1009: the site owner banned this country."""
    ray = _hex(rng, 16)
    body = _HTML_SHELL.format(
        title=f"Access denied | {host} used Cloudflare to restrict access",
        head_extra="<meta name=\"robots\" content=\"noindex, nofollow\">\n",
        body=(
            "<div id=\"cf-wrapper\">\n"
            "<div class=\"cf-alert cf-alert-error\">\n"
            "<h1><span>Error</span> <span>1009</span></h1>\n"
            "<h2>Access denied</h2>\n"
            "<p>What happened?</p>\n"
            f"<p>The owner of this website ({host}) has banned the country or "
            "region your IP address is in "
            f"(<code>{country}</code>) from accessing this website.</p>\n"
            f"<p class=\"cf-footer-item\">Cloudflare Ray ID: <strong>{ray}</strong></p>\n"
            "<p class=\"cf-footer-item\">Performance &amp; security by "
            "<a href=\"https://www.cloudflare.com/\">Cloudflare</a></p>\n"
            "</div>\n</div>"
        ),
    )
    return RenderedPage(CLOUDFLARE_BLOCK, 403, body,
                        (("Server", "cloudflare"), ("CF-RAY", f"{ray[:12]}-SIM")))


def render_appengine(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Google App Engine's sanctions block page."""
    body = _HTML_SHELL.format(
        title="Error 403 (Forbidden)!!1",
        head_extra="<style>body{font-family:arial,sans-serif}</style>\n",
        body=(
            "<p><b>403.</b> <ins>That's an error.</ins></p>\n"
            "<p>We're sorry, but this service is not available in your country.\n"
            "This application is hosted on Google App Engine, and United States "
            "export controls and sanctions programs restrict its availability "
            "in certain countries or regions. <ins>That's all we know.</ins></p>"
        ),
    )
    return RenderedPage(APPENGINE_BLOCK, 403, body, (("Server", "Google Frontend"),))


def render_cloudflare_captcha(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Cloudflare's 'Attention Required!' captcha interstitial."""
    ray = _hex(rng, 16)
    body = _HTML_SHELL.format(
        title=f"Attention Required! | Cloudflare",
        head_extra="<meta name=\"captcha-bypass\" id=\"captcha-bypass\">\n",
        body=(
            "<h1>One more step</h1>\n"
            f"<h2>Please complete the security check to access {host}</h2>\n"
            "<div class=\"cf-captcha-container\">\n"
            "<form id=\"challenge-form\" action=\"/cdn-cgi/l/chk_captcha\" method=\"get\">\n"
            f"<input type=\"hidden\" name=\"id\" value=\"{_hex(rng, 32)}\">\n"
            "<div class=\"g-recaptcha\"></div>\n</form>\n</div>\n"
            "<p>Why do I have to complete a CAPTCHA?</p>\n"
            "<p>Completing the CAPTCHA proves you are a human and gives you "
            "temporary access to the web property.</p>\n"
            f"<p class=\"cf-footer-item\">Cloudflare Ray ID: <strong>{ray}</strong></p>"
        ),
    )
    return RenderedPage(CLOUDFLARE_CAPTCHA, 403, body,
                        (("Server", "cloudflare"), ("CF-RAY", f"{ray[:12]}-SIM"),
                         ("CF-Chl-Bypass", "1")))


def render_cloudflare_js(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Cloudflare's 5-second JavaScript challenge page."""
    ray = _hex(rng, 16)
    jschl = _digits(rng, 10)
    body = _HTML_SHELL.format(
        title="Just a moment...",
        head_extra=(
            "<meta http-equiv=\"refresh\" content=\"8\">\n"
            "<script>var s,t,o,p,b,r,e,a,k,i,n,g;</script>\n"
        ),
        body=(
            "<table width=\"100%\" height=\"100%\" cellpadding=\"20\">\n"
            "<tr><td align=\"center\" valign=\"middle\">\n"
            "<div class=\"cf-browser-verification cf-im-under-attack\">\n"
            "<h1><span data-translate=\"checking_browser\">Checking your browser "
            f"before accessing</span> {host}.</h1>\n"
            "<p data-translate=\"process_is_automatic\">This process is automatic. "
            "Your browser will redirect to your requested content shortly.</p>\n"
            "<form id=\"challenge-form\" action=\"/cdn-cgi/l/chk_jschl\" method=\"get\">\n"
            f"<input type=\"hidden\" name=\"jschl_vc\" value=\"{_hex(rng, 32)}\"/>\n"
            f"<input type=\"hidden\" name=\"jschl_answer\" value=\"{jschl}\"/>\n"
            "</form>\n</div>\n"
            f"<p class=\"cf-footer-item\">Cloudflare Ray ID: <strong>{ray}</strong></p>\n"
            "</td></tr>\n</table>"
        ),
    )
    return RenderedPage(CLOUDFLARE_JS, 503, body,
                        (("Server", "cloudflare"), ("CF-RAY", f"{ray[:12]}-SIM"),
                         ("Refresh", "8")))


def render_cloudfront(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Amazon CloudFront geo-restriction error page."""
    request_id = _hex(rng, 52)
    body = (
        "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.01 Transitional//EN\" "
        "\"http://www.w3.org/TR/html4/loose.dtd\">\n<html><head>"
        "<title>ERROR: The request could not be satisfied</title>\n</head><body>\n"
        "<h1>403 ERROR</h1>\n<h2>The request could not be satisfied.</h2>\n<hr>\n"
        "<p>The Amazon CloudFront distribution is configured to block access "
        "from your country. We can't connect to the server for this app or "
        "website at this time.</p>\n"
        "<hr>\n<h3>Generated by cloudfront (CloudFront)</h3>\n"
        f"<pre>Request ID: {request_id}</pre>\n</body></html>\n"
    )
    return RenderedPage(CLOUDFRONT_BLOCK, 403, body,
                        (("Server", "CloudFront"),
                         ("X-Amz-Cf-Id", request_id[:40]),
                         ("X-Cache", "Error from cloudfront"),
                         ("Via", "1.1 sim.cloudfront.net (CloudFront)")))


def render_baidu_captcha(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Baidu Yunjiasu captcha interstitial."""
    body = _HTML_SHELL.format(
        title="百度云加速安全验证 - Security Check",
        head_extra="",
        body=(
            "<h1>Security verification</h1>\n"
            f"<h2>Please complete the verification to access {host}</h2>\n"
            "<div class=\"yjs-captcha\">\n"
            f"<input type=\"hidden\" name=\"yjs_id\" value=\"{_hex(rng, 24)}\"/>\n"
            "</div>\n<p>Yunjiasu security check by Baidu.</p>"
        ),
    )
    return RenderedPage(BAIDU_CAPTCHA, 403, body, (("Server", "yunjiasu-nginx"),))


def render_baidu_block(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Baidu Yunjiasu geo-restriction block page (Cloudflare-like wording)."""
    incident = _digits(rng, 12)
    body = _HTML_SHELL.format(
        title=f"Access denied | {host} used Yunjiasu to restrict access",
        head_extra="",
        body=(
            "<h1><span>Error</span> <span>1009</span></h1>\n"
            "<h2>Access denied</h2>\n"
            f"<p>The owner of this website ({host}) has banned the country or "
            f"region your IP address is in (<code>{country}</code>) from "
            "accessing this website.</p>\n"
            f"<p>Yunjiasu incident: {incident} &mdash; protection by Baidu "
            "Yunjiasu</p>"
        ),
    )
    return RenderedPage(BAIDU_BLOCK, 403, body, (("Server", "yunjiasu-nginx"),))


def render_incapsula(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Incapsula's iframe incident page (also served on bot detection)."""
    incident = f"{_digits(rng, 9)}-{_digits(rng, 18)}"
    body = (
        "<html>\n<head>\n<META NAME=\"robots\" CONTENT=\"noindex,nofollow\">\n"
        "<script src=\"/_Incapsula_Resource?SWJIYLWA=719d34d31c8e3a6e6fffd425f7e032f3\">"
        "</script>\n</head>\n<body style=\"margin:0px;height:100%\">\n"
        "<iframe src=\"/_Incapsula_Resource?SWUDNSAI=9&xinfo=\" frameborder=0 "
        "width=\"100%\" height=\"100%\" marginheight=\"0px\" marginwidth=\"0px\">"
        "Request unsuccessful. Incapsula incident ID: "
        f"{incident}</iframe>\n</body>\n</html>\n"
    )
    return RenderedPage(INCAPSULA_BLOCK, 403, body,
                        (("X-Iinfo", f"1-{_digits(rng, 8)}-{_digits(rng, 8)} NNNN CT"),
                         ("X-CDN", "Incapsula"),
                         ("Set-Cookie", f"visid_incap_{_digits(rng, 6)}={_hex(rng, 22)}")))


def render_soasta(rng: random.Random, host: str, country: str) -> RenderedPage:
    """SOASTA/mPulse-style ambiguous access-denied page."""
    body = _HTML_SHELL.format(
        title="Access Denied",
        head_extra="",
        body=(
            "<h1>Access Denied</h1>\n"
            f"<p>Your request to {host} was denied by the site's traffic "
            "management policy.</p>\n"
            f"<p>SOASTA traffic manager &mdash; event {_hex(rng, 12)}</p>"
        ),
    )
    return RenderedPage(SOASTA_BLOCK, 403, body, (("Server", "SOASTA"),))


def render_airbnb(rng: random.Random, host: str, country: str) -> RenderedPage:
    """The Airbnb-style custom brand geoblock page (§4.2.2).

    The real page states that the service is unavailable to users in Crimea,
    Iran, Syria, and North Korea; the brand's national ccTLD sites all serve
    the same page.
    """
    brand = host.split(".")[0].capitalize()
    body = _HTML_SHELL.format(
        title=f"{brand} — Service unavailable in your region",
        head_extra="",
        body=(
            f"<h1>{brand} is not available in your region</h1>\n"
            f"<p>Due to applicable trade sanctions and export-control laws, "
            f"{brand} does not offer its website or services to users in "
            "Crimea, Iran, Syria, and North Korea.</p>\n"
            "<p>If you believe you are seeing this page in error, contact "
            "customer support.</p>"
        ),
    )
    return RenderedPage(AIRBNB_BLOCK, 403, body, ())


def render_distil_captcha(rng: random.Random, host: str, country: str) -> RenderedPage:
    """Distil Networks' 'Pardon Our Interruption' bot-detection page."""
    body = _HTML_SHELL.format(
        title="Pardon Our Interruption",
        head_extra=f"<meta name=\"ROBOTS\" content=\"NOINDEX, NOFOLLOW\">\n",
        body=(
            "<h1>Pardon Our Interruption...</h1>\n"
            "<p>As you were browsing something about your browser made us "
            "think you were a bot. There are a few reasons this might happen:</p>\n"
            "<ul><li>You're a power user moving through this website with "
            "super-human speed.</li>\n<li>You've disabled JavaScript in your "
            "web browser.</li>\n<li>A third-party browser plugin is preventing "
            "JavaScript from running.</li></ul>\n"
            f"<p>Reference ID: #{_hex(rng, 8)}-{_hex(rng, 4)}-{_hex(rng, 12)}</p>"
        ),
    )
    return RenderedPage(DISTIL_CAPTCHA, 403, body, (("X-DB", "1"),))


def render_nginx_403(rng: random.Random, host: str, country: str) -> RenderedPage:
    """The stock nginx 403 page (origin-side GeoIP-module blocking)."""
    body = (
        "<html>\r\n<head><title>403 Forbidden</title></head>\r\n"
        "<body bgcolor=\"white\">\r\n<center><h1>403 Forbidden</h1></center>\r\n"
        "<hr><center>nginx</center>\r\n</body>\r\n</html>\r\n"
    )
    return RenderedPage(NGINX_403, 403, body, (("Server", "nginx"),))


def render_nginx_451(rng: random.Random, host: str, country: str) -> RenderedPage:
    """An RFC 7725 'Unavailable For Legal Reasons' origin page."""
    body = (
        "<html>\r\n<head><title>451 Unavailable For Legal Reasons</title>"
        "</head>\r\n<body bgcolor=\"white\">\r\n"
        "<center><h1>451 Unavailable For Legal Reasons</h1></center>\r\n"
        "<p>This resource is unavailable in your jurisdiction due to "
        "applicable trade sanctions and export-control regulations.</p>\r\n"
        "<hr><center>nginx</center>\r\n</body>\r\n</html>\r\n"
    )
    return RenderedPage(NGINX_451, 451, body, (("Server", "nginx"),))


def render_varnish_403(rng: random.Random, host: str, country: str) -> RenderedPage:
    """The stock Varnish error page with a Guru Meditation line."""
    xid = _digits(rng, 9)
    body = (
        "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
        "<!DOCTYPE html>\n<html>\n<head>\n<title>403 Forbidden</title>\n</head>\n"
        "<body>\n<h1>Error 403 Forbidden</h1>\n<p>Forbidden</p>\n"
        f"<h3>Guru Meditation:</h3>\n<p>XID: {xid}</p>\n<hr>\n"
        "<p>Varnish cache server</p>\n</body>\n</html>\n"
    )
    return RenderedPage(VARNISH_403, 403, body, (("Server", "Varnish"), ("X-Varnish", xid)))


RENDERERS: Dict[str, Callable[[random.Random, str, str], RenderedPage]] = {
    AKAMAI_BLOCK: render_akamai,
    CLOUDFLARE_BLOCK: render_cloudflare_block,
    APPENGINE_BLOCK: render_appengine,
    CLOUDFLARE_CAPTCHA: render_cloudflare_captcha,
    CLOUDFLARE_JS: render_cloudflare_js,
    CLOUDFRONT_BLOCK: render_cloudfront,
    BAIDU_CAPTCHA: render_baidu_captcha,
    BAIDU_BLOCK: render_baidu_block,
    INCAPSULA_BLOCK: render_incapsula,
    SOASTA_BLOCK: render_soasta,
    AIRBNB_BLOCK: render_airbnb,
    DISTIL_CAPTCHA: render_distil_captcha,
    NGINX_403: render_nginx_403,
    VARNISH_403: render_varnish_403,
    NGINX_451: render_nginx_451,
}


def render(page_type: str, rng: random.Random, host: str, country: str) -> RenderedPage:
    """Render the named page type for a host as seen from a country."""
    try:
        renderer = RENDERERS[page_type]
    except KeyError:
        raise ValueError(f"unknown page type: {page_type!r}") from None
    return renderer(rng, host, country)
