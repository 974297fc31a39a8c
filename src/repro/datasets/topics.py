"""The topical vocabulary underlying the synthetic AOL-style workload.

The AOL log cannot be redistributed, so the reproduction generates a
query log with the two statistical properties the experiments need:

* **user signal** — each user queries from a small personal mixture of
  topics with user-specific term preferences, giving SimAttack something to
  re-identify (~40 % of unprotected queries for the most active users,
  Figure 3 at k = 0);
* **shared mass** — topics overlap across users and a background vocabulary
  is common to everyone, so real past queries drawn from the proxy history
  plausibly match *other* users' profiles (the property X-Search exploits).

Topics are hand-curated term lists in the style of 2006 web search.  The
same topic model generates the web corpus the search engine indexes, which
makes Figure 4's filtering experiment meaningful: results for a query are
textually related to that query's topic.
"""

from __future__ import annotations

import functools
import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import DatasetError

# 30 topics, each a list of characteristic query/document terms.
TOPIC_TERMS = {
    "travel": [
        "hotel", "flight", "airline", "vacation", "cruise", "resort",
        "airport", "travel", "booking", "beach", "tour", "luggage",
        "passport", "itinerary", "hostel", "destination", "paris", "rome",
        "orlando", "vegas", "tickets", "rental", "island", "caribbean",
    ],
    "health": [
        "symptoms", "diabetes", "cancer", "doctor", "medicine", "treatment",
        "diet", "pregnancy", "allergy", "asthma", "therapy", "vitamin",
        "surgery", "headache", "cholesterol", "nutrition", "hospital",
        "depression", "insomnia", "arthritis", "vaccine", "clinic", "flu",
    ],
    "finance": [
        "mortgage", "loan", "credit", "bank", "insurance", "stock",
        "investment", "refinance", "debt", "taxes", "retirement", "savings",
        "interest", "broker", "dividend", "budget", "bankruptcy", "equity",
        "mutual", "fund", "payday", "annuity", "foreclosure",
    ],
    "cars": [
        "car", "truck", "dealer", "toyota", "honda", "ford", "chevrolet",
        "engine", "transmission", "tires", "brake", "mileage", "hybrid",
        "sedan", "suv", "motorcycle", "oil", "warranty", "lease", "auto",
        "mechanic", "horsepower", "bumper",
    ],
    "sports": [
        "football", "baseball", "basketball", "soccer", "nfl", "nba",
        "playoffs", "score", "team", "coach", "stadium", "league",
        "tournament", "golf", "tennis", "hockey", "olympics", "jersey",
        "draft", "standings", "espn", "batting", "quarterback",
    ],
    "music": [
        "song", "lyrics", "album", "band", "concert", "guitar", "piano",
        "mp3", "download", "playlist", "singer", "rock", "jazz", "country",
        "hip", "hop", "drummer", "chords", "karaoke", "soundtrack", "vinyl",
        "festival", "acoustic",
    ],
    "movies": [
        "movie", "film", "trailer", "actor", "actress", "cinema", "dvd",
        "director", "hollywood", "oscar", "comedy", "thriller", "horror",
        "sequel", "premiere", "screenplay", "animation", "box", "office",
        "review", "showtimes", "netflix", "blockbuster",
    ],
    "cooking": [
        "recipe", "chicken", "pasta", "cake", "baking", "oven", "grill",
        "sauce", "ingredients", "dinner", "dessert", "salad", "soup",
        "casserole", "marinade", "spices", "cookie", "bread", "vegetarian",
        "slow", "cooker", "cuisine", "appetizer",
    ],
    "gardening": [
        "garden", "plants", "flowers", "seeds", "soil", "roses", "pruning",
        "fertilizer", "tomato", "vegetable", "lawn", "mower", "compost",
        "perennial", "shrub", "greenhouse", "mulch", "weeds", "bulbs",
        "hydrangea", "orchid", "landscaping", "herbs",
    ],
    "technology": [
        "computer", "laptop", "software", "windows", "linux", "printer",
        "monitor", "keyboard", "virus", "antivirus", "broadband", "wireless",
        "router", "modem", "hardware", "processor", "memory", "upgrade",
        "driver", "bluetooth", "gadget", "firmware", "desktop",
    ],
    "games": [
        "game", "xbox", "playstation", "nintendo", "cheats", "walkthrough",
        "multiplayer", "console", "arcade", "puzzle", "strategy", "rpg",
        "poker", "chess", "sudoku", "solitaire", "quest", "level", "unlock",
        "simulator", "controller", "joystick", "gamer",
    ],
    "fashion": [
        "dress", "shoes", "handbag", "jeans", "jacket", "fashion", "style",
        "designer", "boutique", "jewelry", "necklace", "earrings", "makeup",
        "lipstick", "perfume", "sunglasses", "scarf", "boots", "outfit",
        "runway", "model", "trend", "wardrobe",
    ],
    "realestate": [
        "house", "apartment", "realtor", "listing", "condo", "rent",
        "property", "appraisal", "closing", "escrow", "neighborhood",
        "bedroom", "bathroom", "basement", "backyard", "acre", "zillow",
        "inspection", "deed", "tenant", "landlord", "duplex", "townhouse",
    ],
    "jobs": [
        "job", "resume", "interview", "salary", "career", "hiring",
        "employer", "recruiter", "vacancy", "internship", "promotion",
        "benefits", "overtime", "workplace", "freelance", "contractor",
        "application", "cover", "letter", "unemployment", "pension",
        "payroll", "monster",
    ],
    "education": [
        "college", "university", "degree", "scholarship", "tuition", "exam",
        "course", "professor", "campus", "semester", "diploma", "homework",
        "algebra", "calculus", "essay", "thesis", "grammar", "spelling",
        "kindergarten", "curriculum", "textbook", "lecture", "gpa",
    ],
    "pets": [
        "dog", "cat", "puppy", "kitten", "veterinarian", "breed", "leash",
        "aquarium", "hamster", "parrot", "grooming", "kennel", "adoption",
        "rabies", "fleas", "collar", "terrier", "labrador", "siamese",
        "goldfish", "reptile", "cage", "litter",
    ],
    "weather": [
        "weather", "forecast", "hurricane", "tornado", "storm", "radar",
        "temperature", "humidity", "snow", "blizzard", "rainfall", "drought",
        "climate", "thunder", "lightning", "flood", "heatwave", "frost",
        "barometer", "meteorology", "windchill", "hail", "fog",
    ],
    "news": [
        "news", "headline", "election", "senate", "congress", "president",
        "governor", "policy", "economy", "inflation", "scandal", "verdict",
        "protest", "campaign", "ballot", "legislation", "diplomat",
        "summit", "embassy", "treaty", "referendum", "poll", "journalist",
    ],
    "shopping": [
        "coupon", "discount", "sale", "ebay", "amazon", "auction",
        "clearance", "shipping", "refund", "wholesale", "bargain", "outlet",
        "giftcard", "catalog", "checkout", "voucher", "retailer", "deals",
        "marketplace", "order", "warranty", "returns", "cart",
    ],
    "diy": [
        "plumbing", "wiring", "drywall", "paint", "hammer", "drill",
        "screwdriver", "lumber", "nails", "sander", "varnish", "caulk",
        "insulation", "roofing", "gutter", "tile", "grout", "workbench",
        "sawdust", "toolbox", "renovation", "remodel", "carpentry",
    ],
    "parenting": [
        "baby", "toddler", "diaper", "stroller", "daycare", "crib",
        "pediatrician", "breastfeeding", "teething", "potty", "training",
        "bedtime", "tantrum", "playground", "babysitter", "formula",
        "nursery", "preschool", "carseat", "pacifier", "lullaby", "twins",
        "adolescent",
    ],
    "fitness": [
        "gym", "workout", "treadmill", "yoga", "pilates", "dumbbell",
        "cardio", "protein", "muscle", "stretching", "marathon", "jogging",
        "situps", "pushups", "trainer", "membership", "calories", "weights",
        "aerobics", "cycling", "swimming", "endurance", "abs",
    ],
    "wedding": [
        "wedding", "bride", "groom", "engagement", "ring", "venue",
        "bouquet", "honeymoon", "invitations", "bridesmaid", "tuxedo",
        "caterer", "reception", "florist", "photographer", "registry",
        "anniversary", "proposal", "veil", "gown", "toast", "centerpiece",
        "chapel",
    ],
    "genealogy": [
        "genealogy", "ancestry", "surname", "census", "obituary",
        "cemetery", "immigration", "heritage", "lineage", "archives",
        "birth", "certificate", "marriage", "record", "descendants",
        "pedigree", "ellis", "homestead", "maiden", "grandfather",
        "ancestors", "registry", "roots",
    ],
    "legal": [
        "lawyer", "attorney", "lawsuit", "divorce", "custody", "alimony",
        "contract", "liability", "plaintiff", "defendant", "subpoena",
        "notary", "paralegal", "settlement", "court", "judge", "appeal",
        "felony", "misdemeanor", "probate", "testament", "litigation",
        "statute",
    ],
    "religion": [
        "church", "bible", "prayer", "sermon", "pastor", "gospel", "faith",
        "scripture", "worship", "baptism", "catholic", "protestant",
        "synagogue", "mosque", "temple", "meditation", "choir", "psalm",
        "parish", "missionary", "pilgrimage", "monastery", "devotional",
    ],
    "celebrity": [
        "celebrity", "gossip", "paparazzi", "tabloid", "divorce", "dating",
        "mansion", "redcarpet", "interview", "scandalous", "stardom",
        "autograph", "fanclub", "hairstyle", "britney", "madonna", "oprah",
        "tomkat", "heiress", "socialite", "premiere", "tmz", "idol",
    ],
    "science": [
        "physics", "chemistry", "biology", "astronomy", "telescope",
        "molecule", "electron", "galaxy", "evolution", "genome", "fossil",
        "quantum", "gravity", "neuron", "photosynthesis", "microscope",
        "asteroid", "nebula", "enzyme", "isotope", "experiment",
        "laboratory", "hypothesis",
    ],
    "history": [
        "history", "civil", "war", "revolution", "empire", "medieval",
        "pharaoh", "dynasty", "colonial", "independence", "constitution",
        "lincoln", "napoleon", "roman", "viking", "crusade", "renaissance",
        "archaeology", "artifact", "museum", "monument", "treaty",
        "holocaust",
    ],
    "outdoors": [
        "camping", "hiking", "fishing", "hunting", "kayak", "canoe",
        "trail", "campground", "tent", "backpack", "binoculars", "compass",
        "wilderness", "national", "park", "yellowstone", "rifle", "bait",
        "tackle", "lantern", "firewood", "summit", "riverbank",
    ],
}

# Query modifiers users attach regardless of topic.
MODIFIERS = [
    "best", "cheap", "free", "online", "reviews", "near", "buy", "how",
    "what", "top", "new", "used", "compare", "find", "local", "guide",
    "pictures", "history", "price", "sale",
]

# Background vocabulary shared by everyone (navigational and misc terms).
BACKGROUND_TERMS = [
    "google", "yahoo", "myspace", "mapquest", "weather", "maps", "email",
    "login", "website", "phone", "number", "address", "zip", "code",
    "lottery", "horoscope", "dictionary", "translation", "calendar",
    "directions", "airlines", "county", "library", "dmv", "craigslist",
    "white", "pages", "yellow", "florida", "texas", "california", "york",
    "ohio", "chicago", "atlanta", "seattle", "boston",
]


@dataclass(frozen=True)
class TopicModel:
    """A frozen view of the topic vocabulary with sampling helpers."""

    topics: tuple  # topic names
    terms: dict  # topic -> tuple of terms

    @classmethod
    def default(cls) -> "TopicModel":
        return cls(
            topics=tuple(sorted(TOPIC_TERMS)),
            terms={name: tuple(words) for name, words in TOPIC_TERMS.items()},
        )

    def topic_terms(self, topic: str) -> tuple:
        if topic not in self.terms:
            raise DatasetError(f"unknown topic {topic!r}")
        return self.terms[topic]

    def sample_term(self, topic: str, rng: random.Random,
                    zipf_s: float = 1.1) -> str:
        """Sample a term from a topic with a Zipfian rank distribution."""
        terms = self.topic_terms(topic)
        return terms[zipf_rank(len(terms), rng, zipf_s)]

    def all_terms(self) -> set:
        out = set(MODIFIERS) | set(BACKGROUND_TERMS)
        for words in self.terms.values():
            out.update(words)
        return out


# typed: weights of int and float exponents can round apart (1/101**8 is
# not 1/101**8.0), so an exponent never reuses the equal other's table.
@functools.lru_cache(maxsize=16, typed=True)
def _zipf_table(n: int, s: float) -> tuple:
    """``(running sums, total)`` of the weights ``1/(r+1)^s``, r < n."""
    weights = [1.0 / ((rank + 1) ** s) for rank in range(n)]
    return tuple(itertools.accumulate(weights)), sum(weights)


def zipf_rank(n: int, rng: random.Random, s: float = 1.1) -> int:
    """Sample a rank in [0, n) with probability proportional to 1/(r+1)^s.

    Draws come from a table cached per ``(n, s)`` and are bit-identical
    to summing the ``n`` weights and scanning their running sum on every
    call: ``itertools.accumulate`` makes the same left-to-right float
    adds as the scan, the total is ``sum(weights)`` (not the last
    running sum, which can differ from it on Python 3.12+, where float
    ``sum()`` is compensated), one ``rng.random()`` is drawn, and
    ``bisect_left`` on the non-decreasing running sums returns the first
    rank with ``acc >= target``.  A target past the last sum gives
    ``n - 1``.
    """
    if n <= 0:
        raise DatasetError("cannot sample from an empty vocabulary")
    cumulative, total = _zipf_table(n, s)
    rank = bisect_left(cumulative, rng.random() * total)
    return rank if rank < n else n - 1


def zipf_sampler(n: int, s: float = 1.1):
    """Return ``draw(rng)``, the same draw as ``zipf_rank(n, rng, s)``
    with the table looked up once, for callers that draw many ranks of
    one ``(n, s)``."""
    if n <= 0:
        raise DatasetError("cannot sample from an empty vocabulary")
    cumulative, total = _zipf_table(n, s)
    last = n - 1

    def draw(rng: random.Random) -> int:
        rank = bisect_left(cumulative, rng.random() * total)
        return rank if rank < n else last

    return draw
