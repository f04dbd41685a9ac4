"""Country registry: ISO codes, sanctions status, vantage availability.

The registry drives three aspects of the simulation:

* **Sanctions.** U.S.-sanctioned countries (Iran, Syria, Sudan, Cuba, North
  Korea — plus the Crimea region) are the primary targets of geoblocking in
  the paper (Tables 5–7); Google AppEngine blocks exactly this set [25].
* **Vantage availability.** Luminati had no exits in North Korea, and the
  paper could sample 177 of 195 attempted countries; we tag each country
  with whether residential exits exist and with a relative proxy-reliability
  score (Comoros, for instance, showed a 76.4% response rate versus 89–94%
  elsewhere).
* **Risk reputation.** Free-tier Cloudflare customers block China and Russia
  at the highest rates (Table 9), reflecting abuse-driven rather than
  sanctions-driven blocking; each country carries an ``abuse_reputation``
  weight used by the policy model's risk-based blocking mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: ISO codes of U.S.-sanctioned countries at the time of the study.
SANCTIONED = ("IR", "SY", "SD", "CU", "KP")

#: Region tag for Crimea; treated as sanctioned at sub-country granularity.
CRIMEA = "crimea"

#: Countries that free-tier customers disproportionately block (abuse-driven).
HIGH_ABUSE = ("CN", "RU", "UA", "VN", "IN", "ID", "BR", "NG", "RO", "IQ", "PK", "TR")

#: The 16 VPS countries from §2.2 of the paper.
VPS_COUNTRIES = (
    "IR", "IL", "TR", "RU", "KH", "CH", "AT", "BY",
    "LV", "US", "CA", "BR", "NG", "EG", "KE", "NZ",
)


@dataclass(frozen=True)
class Country:
    """One country in the simulated world."""

    code: str
    name: str
    sanctioned: bool = False
    luminati: bool = True            # residential exits available?
    reliability: float = 0.97        # per-request proxy success probability
    abuse_reputation: float = 0.0    # weight in risk-based blocking [0, 1]
    gdp_rank: int = 100              # 1 = richest; drives VPS selection
    regions: Tuple[str, ...] = ()    # subnational regions with own netblocks


# (code, name, sanctioned, luminati, reliability, abuse, gdp_rank, regions)
_COUNTRY_ROWS: List[Tuple] = [
    ("US", "United States", False, True, 0.985, 0.05, 1, ()),
    ("CN", "China", False, True, 0.94, 0.95, 2, ()),
    ("JP", "Japan", False, True, 0.98, 0.02, 3, ()),
    ("DE", "Germany", False, True, 0.985, 0.03, 4, ()),
    ("GB", "United Kingdom", False, True, 0.985, 0.03, 5, ()),
    ("FR", "France", False, True, 0.98, 0.04, 6, ()),
    ("IN", "India", False, True, 0.95, 0.45, 7, ()),
    ("IT", "Italy", False, True, 0.97, 0.05, 8, ()),
    ("BR", "Brazil", False, True, 0.96, 0.5, 9, ()),
    ("CA", "Canada", False, True, 0.98, 0.03, 10, ()),
    ("KR", "South Korea", False, True, 0.98, 0.06, 11, ()),
    ("RU", "Russia", False, True, 0.95, 0.9, 12, ()),
    ("AU", "Australia", False, True, 0.98, 0.02, 13, ()),
    ("ES", "Spain", False, True, 0.975, 0.04, 14, ()),
    ("MX", "Mexico", False, True, 0.96, 0.2, 15, ()),
    ("ID", "Indonesia", False, True, 0.94, 0.4, 16, ()),
    ("NL", "Netherlands", False, True, 0.985, 0.05, 17, ()),
    ("TR", "Turkey", False, True, 0.95, 0.35, 18, ()),
    ("SA", "Saudi Arabia", False, True, 0.96, 0.1, 19, ()),
    ("CH", "Switzerland", False, True, 0.985, 0.01, 20, ()),
    ("AR", "Argentina", False, True, 0.96, 0.15, 21, ()),
    ("SE", "Sweden", False, True, 0.985, 0.02, 22, ()),
    ("PL", "Poland", False, True, 0.975, 0.08, 23, ()),
    ("BE", "Belgium", False, True, 0.98, 0.02, 24, ()),
    ("TH", "Thailand", False, True, 0.95, 0.2, 25, ()),
    ("NG", "Nigeria", False, True, 0.93, 0.75, 26, ()),
    ("AT", "Austria", False, True, 0.985, 0.01, 27, ()),
    ("NO", "Norway", False, True, 0.985, 0.01, 28, ()),
    ("AE", "United Arab Emirates", False, True, 0.97, 0.08, 29, ()),
    ("EG", "Egypt", False, True, 0.94, 0.25, 30, ()),
    ("MY", "Malaysia", False, True, 0.96, 0.15, 31, ()),
    ("IL", "Israel", False, True, 0.975, 0.06, 32, ()),
    ("HK", "Hong Kong", False, True, 0.975, 0.1, 33, ()),
    ("SG", "Singapore", False, True, 0.98, 0.04, 34, ()),
    ("PH", "Philippines", False, True, 0.94, 0.25, 35, ()),
    ("IR", "Iran", True, True, 0.93, 0.3, 36, ()),
    ("DK", "Denmark", False, True, 0.985, 0.01, 37, ()),
    ("PK", "Pakistan", False, True, 0.93, 0.45, 38, ()),
    ("CO", "Colombia", False, True, 0.95, 0.15, 39, ()),
    ("CL", "Chile", False, True, 0.97, 0.06, 40, ()),
    ("FI", "Finland", False, True, 0.985, 0.01, 41, ()),
    ("BD", "Bangladesh", False, True, 0.92, 0.25, 42, ()),
    ("VN", "Vietnam", False, True, 0.94, 0.55, 43, ()),
    ("ZA", "South Africa", False, True, 0.95, 0.15, 44, ()),
    ("IE", "Ireland", False, True, 0.98, 0.02, 45, ()),
    ("RO", "Romania", False, True, 0.955, 0.5, 46, ()),
    ("CZ", "Czech Republic", False, True, 0.975, 0.25, 47, ()),
    ("PT", "Portugal", False, True, 0.975, 0.04, 48, ()),
    ("PE", "Peru", False, True, 0.95, 0.1, 49, ()),
    ("GR", "Greece", False, True, 0.97, 0.05, 50, ()),
    ("NZ", "New Zealand", False, True, 0.98, 0.01, 51, ()),
    ("IQ", "Iraq", False, True, 0.92, 0.4, 52, ()),
    ("DZ", "Algeria", False, True, 0.93, 0.15, 53, ()),
    ("QA", "Qatar", False, True, 0.97, 0.04, 54, ()),
    ("KZ", "Kazakhstan", False, True, 0.95, 0.2, 55, ()),
    ("HU", "Hungary", False, True, 0.975, 0.1, 56, ()),
    ("KW", "Kuwait", False, True, 0.965, 0.05, 57, ()),
    ("UA", "Ukraine", False, True, 0.95, 0.65, 58, (CRIMEA,)),
    ("MA", "Morocco", False, True, 0.94, 0.1, 59, ()),
    ("EC", "Ecuador", False, True, 0.95, 0.08, 60, ()),
    ("SK", "Slovakia", False, True, 0.975, 0.08, 61, ()),
    ("LK", "Sri Lanka", False, True, 0.94, 0.1, 62, ()),
    ("ET", "Ethiopia", False, True, 0.9, 0.1, 63, ()),
    ("KE", "Kenya", False, True, 0.93, 0.15, 64, ()),
    ("VE", "Venezuela", False, True, 0.92, 0.2, 65, ()),
    ("SD", "Sudan", True, True, 0.9, 0.2, 66, ()),
    ("MM", "Myanmar", False, True, 0.91, 0.1, 67, ()),
    ("DO", "Dominican Republic", False, True, 0.95, 0.08, 68, ()),
    ("UZ", "Uzbekistan", False, True, 0.93, 0.12, 69, ()),
    ("GT", "Guatemala", False, True, 0.94, 0.08, 70, ()),
    ("OM", "Oman", False, True, 0.96, 0.03, 71, ()),
    ("CR", "Costa Rica", False, True, 0.96, 0.04, 72, ()),
    ("UY", "Uruguay", False, True, 0.97, 0.03, 73, ()),
    ("PA", "Panama", False, True, 0.96, 0.05, 74, ()),
    ("LB", "Lebanon", False, True, 0.94, 0.1, 75, ()),
    ("BY", "Belarus", False, True, 0.95, 0.2, 76, ()),
    ("TZ", "Tanzania", False, True, 0.91, 0.08, 77, ()),
    ("HR", "Croatia", False, True, 0.97, 0.2, 78, ()),
    ("BG", "Bulgaria", False, True, 0.97, 0.2, 79, ()),
    ("SI", "Slovenia", False, True, 0.975, 0.03, 80, ()),
    ("LT", "Lithuania", False, True, 0.975, 0.08, 81, ()),
    ("TN", "Tunisia", False, True, 0.94, 0.08, 82, ()),
    ("JO", "Jordan", False, True, 0.95, 0.06, 83, ()),
    ("RS", "Serbia", False, True, 0.96, 0.15, 84, ()),
    ("AZ", "Azerbaijan", False, True, 0.94, 0.1, 85, ()),
    ("GH", "Ghana", False, True, 0.92, 0.2, 86, ()),
    ("CI", "Ivory Coast", False, True, 0.92, 0.08, 87, ()),
    ("CM", "Cameroon", False, True, 0.91, 0.1, 88, ()),
    ("BO", "Bolivia", False, True, 0.94, 0.05, 89, ()),
    ("PY", "Paraguay", False, True, 0.95, 0.05, 90, ()),
    ("LV", "Latvia", False, True, 0.975, 0.12, 91, ()),
    ("EE", "Estonia", False, True, 0.975, 0.1, 92, ()),
    ("NP", "Nepal", False, True, 0.92, 0.08, 93, ()),
    ("SV", "El Salvador", False, True, 0.94, 0.05, 94, ()),
    ("HN", "Honduras", False, True, 0.93, 0.06, 95, ()),
    ("KH", "Cambodia", False, True, 0.92, 0.08, 96, ()),
    ("CY", "Cyprus", False, True, 0.97, 0.04, 97, ()),
    ("SN", "Senegal", False, True, 0.92, 0.06, 98, ()),
    ("ZW", "Zimbabwe", False, True, 0.9, 0.08, 99, ()),
    ("UG", "Uganda", False, True, 0.91, 0.08, 100, ()),
    ("SY", "Syria", True, True, 0.9, 0.25, 101, ()),
    ("LU", "Luxembourg", False, True, 0.985, 0.01, 102, ()),
    ("MT", "Malta", False, True, 0.975, 0.03, 103, ()),
    ("IS", "Iceland", False, True, 0.985, 0.01, 104, ()),
    ("GE", "Georgia", False, True, 0.95, 0.08, 105, ()),
    ("AM", "Armenia", False, True, 0.95, 0.07, 106, ()),
    ("MD", "Moldova", False, True, 0.94, 0.15, 107, ()),
    ("AL", "Albania", False, True, 0.94, 0.08, 108, ()),
    ("MK", "North Macedonia", False, True, 0.95, 0.07, 109, ()),
    ("BA", "Bosnia and Herzegovina", False, True, 0.95, 0.08, 110, ()),
    ("ME", "Montenegro", False, True, 0.95, 0.05, 111, ()),
    ("MN", "Mongolia", False, True, 0.93, 0.04, 112, ()),
    ("KG", "Kyrgyzstan", False, True, 0.92, 0.06, 113, ()),
    ("TJ", "Tajikistan", False, True, 0.91, 0.05, 114, ()),
    ("TM", "Turkmenistan", False, True, 0.9, 0.04, 115, ()),
    ("AF", "Afghanistan", False, True, 0.89, 0.1, 116, ()),
    ("YE", "Yemen", False, True, 0.88, 0.08, 117, ()),
    ("LY", "Libya", False, True, 0.9, 0.1, 118, ()),
    ("BH", "Bahrain", False, True, 0.96, 0.03, 119, ()),
    ("PS", "Palestine", False, True, 0.92, 0.05, 120, ()),
    ("MZ", "Mozambique", False, True, 0.9, 0.05, 121, ()),
    ("AO", "Angola", False, True, 0.9, 0.06, 122, ()),
    ("ZM", "Zambia", False, True, 0.91, 0.05, 123, ()),
    ("BW", "Botswana", False, True, 0.93, 0.03, 124, ()),
    ("NA", "Namibia", False, True, 0.93, 0.03, 125, ()),
    ("MW", "Malawi", False, True, 0.89, 0.04, 126, ()),
    ("RW", "Rwanda", False, True, 0.92, 0.04, 127, ()),
    ("MG", "Madagascar", False, True, 0.89, 0.04, 128, ()),
    ("ML", "Mali", False, True, 0.89, 0.05, 129, ()),
    ("BF", "Burkina Faso", False, True, 0.89, 0.04, 130, ()),
    ("NE", "Niger", False, True, 0.88, 0.04, 131, ()),
    ("TD", "Chad", False, True, 0.87, 0.04, 132, ()),
    ("BJ", "Benin", False, True, 0.9, 0.04, 133, ()),
    ("TG", "Togo", False, True, 0.9, 0.04, 134, ()),
    ("GN", "Guinea", False, True, 0.88, 0.04, 135, ()),
    ("GA", "Gabon", False, True, 0.92, 0.03, 136, ()),
    ("CG", "Congo", False, True, 0.88, 0.04, 137, ()),
    ("CD", "DR Congo", False, True, 0.86, 0.05, 138, ()),
    ("MU", "Mauritius", False, True, 0.95, 0.02, 139, ()),
    ("SC", "Seychelles", False, True, 0.94, 0.02, 140, ()),
    ("CV", "Cape Verde", False, True, 0.92, 0.02, 141, ()),
    ("GM", "Gambia", False, True, 0.89, 0.03, 142, ()),
    ("SL", "Sierra Leone", False, True, 0.87, 0.03, 143, ()),
    ("LR", "Liberia", False, True, 0.87, 0.03, 144, ()),
    ("MR", "Mauritania", False, True, 0.88, 0.03, 145, ()),
    ("SO", "Somalia", False, True, 0.85, 0.05, 146, ()),
    ("DJ", "Djibouti", False, True, 0.88, 0.02, 147, ()),
    ("ER", "Eritrea", False, True, 0.84, 0.02, 148, ()),
    ("SS", "South Sudan", False, True, 0.84, 0.03, 149, ()),
    ("BI", "Burundi", False, True, 0.86, 0.03, 150, ()),
    ("LS", "Lesotho", False, True, 0.9, 0.02, 151, ()),
    ("SZ", "Eswatini", False, True, 0.9, 0.02, 152, ()),
    ("KM", "Comoros", False, True, 0.76, 0.02, 153, ()),
    ("CU", "Cuba", True, True, 0.9, 0.1, 154, ()),
    ("HT", "Haiti", False, True, 0.88, 0.04, 155, ()),
    ("JM", "Jamaica", False, True, 0.94, 0.05, 156, ()),
    ("TT", "Trinidad and Tobago", False, True, 0.95, 0.04, 157, ()),
    ("BS", "Bahamas", False, True, 0.95, 0.03, 158, ()),
    ("BB", "Barbados", False, True, 0.95, 0.02, 159, ()),
    ("GY", "Guyana", False, True, 0.92, 0.03, 160, ()),
    ("SR", "Suriname", False, True, 0.92, 0.03, 161, ()),
    ("BZ", "Belize", False, True, 0.93, 0.03, 162, ()),
    ("NI", "Nicaragua", False, True, 0.93, 0.05, 163, ()),
    ("FJ", "Fiji", False, True, 0.93, 0.02, 164, ()),
    ("PG", "Papua New Guinea", False, True, 0.89, 0.03, 165, ()),
    ("LA", "Laos", False, True, 0.91, 0.05, 166, ()),
    ("BN", "Brunei", False, True, 0.96, 0.02, 167, ()),
    ("MV", "Maldives", False, True, 0.94, 0.02, 168, ()),
    ("BT", "Bhutan", False, True, 0.92, 0.02, 169, ()),
    ("TL", "Timor-Leste", False, True, 0.88, 0.02, 170, ()),
    ("MO", "Macau", False, True, 0.97, 0.04, 171, ()),
    ("TW", "Taiwan", False, True, 0.975, 0.06, 172, ()),
    ("KP", "North Korea", True, False, 0.0, 0.3, 173, ()),
    ("VA", "Vatican City", False, False, 0.0, 0.0, 174, ()),
    ("FM", "Micronesia", False, True, 0.87, 0.01, 175, ()),
    ("WS", "Samoa", False, True, 0.89, 0.01, 176, ()),
    ("TO", "Tonga", False, True, 0.89, 0.01, 177, ()),
    ("VU", "Vanuatu", False, True, 0.89, 0.01, 178, ()),
    ("SB", "Solomon Islands", False, True, 0.87, 0.01, 179, ()),
    ("KI", "Kiribati", False, False, 0.0, 0.01, 180, ()),
    ("NR", "Nauru", False, False, 0.0, 0.01, 181, ()),
    ("TV", "Tuvalu", False, False, 0.0, 0.01, 182, ()),
    ("MH", "Marshall Islands", False, False, 0.0, 0.01, 183, ()),
    ("PW", "Palau", False, False, 0.0, 0.01, 184, ()),
    ("AD", "Andorra", False, True, 0.97, 0.01, 185, ()),
    ("MC", "Monaco", False, True, 0.97, 0.01, 186, ()),
    ("LI", "Liechtenstein", False, True, 0.98, 0.01, 187, ()),
    ("SM", "San Marino", False, True, 0.97, 0.01, 188, ()),
    ("GD", "Grenada", False, True, 0.93, 0.01, 189, ()),
    ("LC", "Saint Lucia", False, True, 0.93, 0.01, 190, ()),
    ("VC", "Saint Vincent", False, True, 0.92, 0.01, 191, ()),
    ("AG", "Antigua and Barbuda", False, True, 0.93, 0.01, 192, ()),
    ("KN", "Saint Kitts and Nevis", False, True, 0.93, 0.01, 193, ()),
    ("DM", "Dominica", False, True, 0.92, 0.01, 194, ()),
    ("ST", "Sao Tome and Principe", False, True, 0.88, 0.01, 195, ()),
]


class CountryRegistry:
    """Indexed access to the simulated world's countries."""

    def __init__(self, countries: Optional[List[Country]] = None) -> None:
        rows = countries if countries is not None else [
            Country(code=c, name=n, sanctioned=s, luminati=l, reliability=r,
                    abuse_reputation=a, gdp_rank=g, regions=tuple(regions))
            for c, n, s, l, r, a, g, regions in _COUNTRY_ROWS
        ]
        self._by_code: Dict[str, Country] = {c.code: c for c in rows}
        if len(self._by_code) != len(rows):
            raise ValueError("duplicate country codes in registry")

    def __len__(self) -> int:
        return len(self._by_code)

    def __iter__(self) -> Iterator[Country]:
        return iter(self._by_code.values())

    def __contains__(self, code: object) -> bool:
        return code in self._by_code

    def get(self, code: str) -> Country:
        """Country by ISO code; raises KeyError for unknown codes."""
        return self._by_code[code]

    def codes(self) -> List[str]:
        """All country codes, in registry order."""
        return list(self._by_code)

    def sanctioned_codes(self) -> List[str]:
        """Codes of sanctioned countries."""
        return [c.code for c in self if c.sanctioned]

    def luminati_codes(self) -> List[str]:
        """Countries where Luminati residential exits exist."""
        return [c.code for c in self if c.luminati]

    def vps_countries(self) -> List[Country]:
        """The §2.2 VPS countries present in this registry, paper order.

        A restricted registry (test configurations) yields the subset of the
        16 VPS locations it contains.
        """
        return [self.get(code) for code in VPS_COUNTRIES if code in self]

    def subset(self, codes: List[str]) -> "CountryRegistry":
        """A registry containing only the given codes (order preserved)."""
        return CountryRegistry([self.get(c) for c in codes])
