"""Static geographic reference tables for the synthetic Eurostat cube.

The tables model what the real linked-data sources provide around the
``migr_asyappctzm`` data set: citizenship countries with their
continents, destination (EU/EFTA) countries with political metadata,
and the time dimension's month → quarter → year containments.

Values are real-world (2014-era) facts where it matters for realism
(continent membership, EU membership, government form), but none of the
benchmarks depend on their exactness — only on their *functional
structure* (country → continent is many-to-one, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Country:
    """One country row of the reference table."""

    code: str          # ISO-3166-ish alpha-2 code (Eurostat dictionary key)
    name: str
    continent: str     # continent key into CONTINENTS
    population: int    # approximate, thousands
    government: str    # government-form key into GOVERNMENT_KINDS
    eu_member: bool = False


#: continent key → human-readable name
CONTINENTS: Dict[str, str] = {
    "AF": "Africa",
    "AS": "Asia",
    "EU": "Europe",
    "NA": "North America",
    "SA": "South America",
    "OC": "Oceania",
}

#: government-form key → human-readable name
GOVERNMENT_KINDS: Dict[str, str] = {
    "REP": "Republic",
    "CMO": "Constitutional monarchy",
    "AMO": "Absolute monarchy",
    "FED": "Federal republic",
    "OTH": "Other",
}

#: Citizenship countries: origins of asylum applicants (plus a few
#: European ones so the dimension is not continent-degenerate).
CITIZENSHIP_COUNTRIES: List[Country] = [
    # Africa
    Country("NG", "Nigeria", "AF", 177000, "FED"),
    Country("ER", "Eritrea", "AF", 6500, "REP"),
    Country("SO", "Somalia", "AF", 10800, "FED"),
    Country("GM", "Gambia", "AF", 1900, "REP"),
    Country("ML", "Mali", "AF", 17000, "REP"),
    Country("SN", "Senegal", "AF", 14500, "REP"),
    Country("CD", "DR Congo", "AF", 74000, "REP"),
    Country("GN", "Guinea", "AF", 12000, "REP"),
    Country("CI", "Ivory Coast", "AF", 22000, "REP"),
    Country("DZ", "Algeria", "AF", 39000, "REP"),
    Country("MA", "Morocco", "AF", 34000, "CMO"),
    Country("TN", "Tunisia", "AF", 11000, "REP"),
    Country("EG", "Egypt", "AF", 87000, "REP"),
    Country("SD", "Sudan", "AF", 38000, "FED"),
    Country("ET", "Ethiopia", "AF", 97000, "FED"),
    Country("GH", "Ghana", "AF", 27000, "REP"),
    Country("CM", "Cameroon", "AF", 23000, "REP"),
    Country("LY", "Libya", "AF", 6300, "OTH"),
    # Asia / Middle East
    Country("SY", "Syria", "AS", 22000, "REP"),
    Country("AF_C", "Afghanistan", "AS", 31000, "REP"),
    Country("IQ", "Iraq", "AS", 35000, "FED"),
    Country("IR", "Iran", "AS", 78000, "REP"),
    Country("PK", "Pakistan", "AS", 185000, "FED"),
    Country("BD", "Bangladesh", "AS", 159000, "REP"),
    Country("LK", "Sri Lanka", "AS", 21000, "REP"),
    Country("IN", "India", "AS", 1267000, "FED"),
    Country("CN", "China", "AS", 1364000, "REP"),
    Country("VN", "Vietnam", "AS", 91000, "REP"),
    Country("GE", "Georgia", "AS", 3700, "REP"),
    Country("AM", "Armenia", "AS", 3000, "REP"),
    Country("LB", "Lebanon", "AS", 5900, "REP"),
    Country("JO", "Jordan", "AS", 7600, "CMO"),
    Country("SA_C", "Saudi Arabia", "AS", 30800, "AMO"),
    Country("TR", "Turkey", "AS", 77000, "REP"),
    # Europe (non-EU origins)
    Country("RS", "Serbia", "EU", 7100, "REP"),
    Country("AL", "Albania", "EU", 2900, "REP"),
    Country("XK", "Kosovo", "EU", 1800, "REP"),
    Country("MK", "North Macedonia", "EU", 2100, "REP"),
    Country("BA", "Bosnia and Herzegovina", "EU", 3800, "REP"),
    Country("UA", "Ukraine", "EU", 45000, "REP"),
    Country("RU", "Russia", "EU", 143000, "FED"),
    Country("MD", "Moldova", "EU", 3600, "REP"),
    Country("ME", "Montenegro", "EU", 620, "REP"),
    # Americas
    Country("HT", "Haiti", "NA", 10600, "REP"),
    Country("CU", "Cuba", "NA", 11300, "REP"),
    Country("MX", "Mexico", "NA", 124000, "FED"),
    Country("CO", "Colombia", "SA", 48000, "REP"),
    Country("VE", "Venezuela", "SA", 30000, "FED"),
    Country("PE", "Peru", "SA", 31000, "REP"),
    Country("BR", "Brazil", "SA", 202000, "FED"),
    # Oceania
    Country("FJ", "Fiji", "OC", 890, "REP"),
    Country("PG", "Papua New Guinea", "OC", 7500, "CMO"),
]

#: Destination countries: the EU/EFTA states receiving applications.
DESTINATION_COUNTRIES: List[Country] = [
    Country("DE", "Germany", "EU", 80900, "FED", eu_member=True),
    Country("FR", "France", "EU", 66000, "REP", eu_member=True),
    Country("SE", "Sweden", "EU", 9700, "CMO", eu_member=True),
    Country("IT", "Italy", "EU", 60800, "REP", eu_member=True),
    Country("UK", "United Kingdom", "EU", 64600, "CMO", eu_member=True),
    Country("HU", "Hungary", "EU", 9900, "REP", eu_member=True),
    Country("AT", "Austria", "EU", 8500, "FED", eu_member=True),
    Country("NL", "Netherlands", "EU", 16900, "CMO", eu_member=True),
    Country("BE", "Belgium", "EU", 11200, "CMO", eu_member=True),
    Country("DK", "Denmark", "EU", 5600, "CMO", eu_member=True),
    Country("ES", "Spain", "EU", 46500, "CMO", eu_member=True),
    Country("PL", "Poland", "EU", 38500, "REP", eu_member=True),
    Country("GR", "Greece", "EU", 10900, "REP", eu_member=True),
    Country("FI", "Finland", "EU", 5500, "REP", eu_member=True),
    Country("IE", "Ireland", "EU", 4600, "REP", eu_member=True),
    Country("PT", "Portugal", "EU", 10400, "REP", eu_member=True),
    Country("CZ", "Czechia", "EU", 10500, "REP", eu_member=True),
    Country("RO", "Romania", "EU", 19900, "REP", eu_member=True),
    Country("BG", "Bulgaria", "EU", 7200, "REP", eu_member=True),
    Country("SK", "Slovakia", "EU", 5400, "REP", eu_member=True),
    Country("HR", "Croatia", "EU", 4200, "REP", eu_member=True),
    Country("SI", "Slovenia", "EU", 2100, "REP", eu_member=True),
    Country("LT", "Lithuania", "EU", 2900, "REP", eu_member=True),
    Country("LV", "Latvia", "EU", 2000, "REP", eu_member=True),
    Country("EE", "Estonia", "EU", 1300, "REP", eu_member=True),
    Country("LU", "Luxembourg", "EU", 550, "CMO", eu_member=True),
    Country("CY", "Cyprus", "EU", 860, "REP", eu_member=True),
    Country("MT", "Malta", "EU", 430, "REP", eu_member=True),
    # EFTA (non-EU destinations in the real data set)
    Country("CH", "Switzerland", "EU", 8200, "FED"),
    Country("NO", "Norway", "EU", 5100, "CMO"),
    Country("IS", "Iceland", "EU", 330, "REP"),
    Country("LI", "Liechtenstein", "EU", 37, "CMO"),
]

#: sex dimension codes (Eurostat dictionary)
SEX_CODES: List[Tuple[str, str]] = [
    ("T", "Total"),
    ("M", "Males"),
    ("F", "Females"),
]

#: age-group dimension codes
AGE_CODES: List[Tuple[str, str]] = [
    ("TOTAL", "Total"),
    ("Y_LT14", "Less than 14 years"),
    ("Y14-17", "From 14 to 17 years"),
    ("Y18-34", "From 18 to 34 years"),
    ("Y35-64", "From 35 to 64 years"),
    ("Y_GE65", "65 years or over"),
]

#: application-type dimension codes (asylum applicant kinds)
APPLICATION_CODES: List[Tuple[str, str]] = [
    ("ASY_APP", "Asylum applicant"),
    ("ASY_APP_F", "First-time asylum applicant"),
]

#: months of the paper's demo subset: 2013-01 .. 2014-12
MONTHS: List[str] = [
    f"{year}M{month:02d}"
    for year in (2013, 2014)
    for month in range(1, 13)
]


def month_to_quarter(month_code: str) -> str:
    """``2013M05`` → ``2013Q2``."""
    year, month = month_code.split("M")
    quarter = (int(month) - 1) // 3 + 1
    return f"{year}Q{quarter}"


def quarter_to_year(quarter_code: str) -> str:
    """``2013Q2`` → ``2013``."""
    return quarter_code.split("Q")[0]


QUARTERS: List[str] = sorted({month_to_quarter(m) for m in MONTHS})
YEARS: List[str] = sorted({quarter_to_year(q) for q in QUARTERS})


def destination_by_code() -> Dict[str, Country]:
    """Destination countries indexed by their dictionary code."""
    return {country.code: country for country in DESTINATION_COUNTRIES}
