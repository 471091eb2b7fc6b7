"""numpy's `default_rng` streams, drawn in Python ints and floats.

`Generator(entropy)` starts in the state `np.random.default_rng(entropy)`
starts in, and its `random`, `uniform` and `normal` give the same floats,
bit for bit. The entropy, an int >= 0 or a sequence of them, is hashed by
numpy's SeedSequence (numpy/random/bit_generator.pyx) into four pool words,
whose generate_state words seed a PCG64 (O'Neill 2014). Its XSL-RR output
feeds numpy's conversion to doubles and its 256-layer ziggurat for normals
(Marsaglia & Tsang 2000), as numpy/random/src/distributions/distributions.c
draws them. numpy itself is only the tests' oracle.
"""

import base64
import math
import struct

_M32 = 2**32 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1

# SeedSequence's hash constants: pool mixing (A, MIX) and state output (B)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_NEG_MIX_MULT_R = -_MIX_MULT_R & _M32
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _call_constants(init: int, mult: int, start: int, count: int) -> list[int]:
    """Hash constants init * mult**i mod 2**32, i = start .. start + count:
    hash call i XORs its value with constant i and multiplies it by i + 1."""
    constants = [init * pow(mult, start, 2**32) & _M32]
    for _ in range(count):
        constants.append(constants[-1] * mult & _M32)
    return constants


_A = _call_constants(_INIT_A, _MULT_A, 0, 4 * _POOL_SIZE)  # a pool hash of 4 words: 16 calls
# generate_state's constants for the eight words that seed a PCG64
_B = _call_constants(_INIT_B, _MULT_B, 0, 8)


def _lanes(values) -> int:
    """Ints below 2**64 as the 64-bit lanes of one int, the first lowest."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _state_words(entropies, start: int, count: int) -> list[tuple]:
    """Words start .. start + count - 1 of generate_state(start + count, np.uint64) of
    each entropy's SeedSequence, in a 64-bit lane each: values stay below 2**32, so no
    32-bit product leaves a lane, and mix adds, not subtracts, so no borrow does. Up to
    four words hash as if zero-padded to four and share lanes; more are hashed alone."""
    packed, n_words = [], 0  # each entropy's uint32 words as one int, the first lowest
    for entropy in entropies:
        value = shift = 0
        for part in (entropy,) if isinstance(entropy, int) else entropy:
            if part < 0:
                raise ValueError(f"entropy must be >= 0, got {part}")
            value |= part << shift  # its words, low first, and one for a 0
            shift += 32 * max(-(-part.bit_length() // 32), 1)
        packed.append(value)
        n_words = max(n_words, shift // 32)
    if n_words > _POOL_SIZE and len(packed) > 1:
        raise ValueError("an entropy of more than four words must be hashed alone")
    ones = _lanes([1] * len(packed))  # a 1 in each lane
    mask = _M32 * ones
    a = _A if n_words <= _POOL_SIZE else _call_constants(_INIT_A, _MULT_A, 0, 4 * n_words)
    calls = zip(a, a[1:])  # hash call i XORs a[i], multiplies by a[i + 1], folds the high half in
    low, high = _lanes([v & _M64 for v in packed]), _lanes([v >> 64 & _M64 for v in packed])
    words = (low, low >> 32, high, high >> 32)  # the first four words of each entropy
    pool = [(w & mask ^ x * ones) * m & mask for w, (x, m) in zip(words, calls)]
    pool = [hashed ^ hashed >> 16 & mask for hashed in pool]
    # each pool word is hashed into the other three, then each later word into all four
    for src in range(max(n_words, _POOL_SIZE)):
        value = pool[src] if src < _POOL_SIZE else packed[0] >> 32 * src & _M32
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor, mult = next(calls)
                hashed = (value ^ xor * ones) * mult & mask
                hashed = _NEG_MIX_MULT_R * (hashed ^ hashed >> 16 & mask) & mask
                mixed = (_MIX_MULT_L * pool[dst] & mask) + hashed & mask
                pool[dst] = mixed ^ mixed >> 16 & mask
    b = _B if start == 0 and count <= 4 else _call_constants(_INIT_B, _MULT_B, 2 * start, 2 * count)
    # uint32 word i hashes pool word i % 4 with call i's constants
    words = [(pool[(2 * start + i) % 4] ^ b[i] * ones) * b[i + 1] & mask for i in range(2 * count)]
    words = [hashed ^ hashed >> 16 & mask for hashed in words]
    # each uint64 is a pair of uint32 words, the first low
    n = len(packed)
    return [struct.unpack(f"<{n}Q", (lo | hi << 32).to_bytes(8 * n, "little"))
            for lo, hi in zip(words[0::2], words[1::2])]


def state_words(entropy, start: int, count: int) -> list[int]:
    """uint64 words start .. start + count - 1 of
    SeedSequence(entropy).generate_state(start + count, np.uint64),
    computed without the words before them."""
    return [word for (word,) in _state_words([entropy], start, count)]


class Generator:
    """A PCG64 in the state np.random.default_rng(entropy) starts in, with
    the draws of numpy's Generator that the damage models make."""

    __slots__ = ("state", "inc")

    def __init__(self, entropy):
        (seeded,) = self.seeded([entropy])
        self.state, self.inc = seeded.state, seeded.inc

    @classmethod
    def seeded(cls, entropies):
        """Generator(e) for each entropy e, hashed together by _state_words and each
        built as taken, so none lives on into the collector's oldest generation."""
        return map(cls._pcg64, *_state_words(entropies, 0, 4))

    @classmethod
    def _pcg64(cls, s_hi, s_lo, q_hi, q_lo):
        """pcg64_set_seed: initstate from words 0 and 1, initseq from 2 and 3, high first."""
        rng = cls.__new__(cls)
        rng.inc = inc = (q_hi << 65 | q_lo << 1 | 1) & _M128
        rng.state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128
        return rng

    def next_uint64(self) -> int:
        """The LCG's next state, output by XSL-RR."""
        self.state = state = (self.state * _PCG64_MULT + self.inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def random(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self, loc: float, scale: float) -> float:
        return loc + scale * self.standard_normal()

    def standard_normal(self) -> float:
        while True:
            r = self.next_uint64()
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & 0xFFFFFFFFFFFFF
            x = -rabs * _WI[idx] if r & 1 else rabs * _WI[idx]
            if rabs < _KI[idx]:
                return x  # 99.3% of the time
            if idx == 0:  # the tail beyond r, drawn with 1 - U so as never to take log(0)
                while True:
                    xx = -_ZIGGURAT_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_NOR_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_NOR_R + xx
            elif (_FI[idx - 1] - _FI[idx]) * self.random() + _FI[idx] < math.exp(-0.5 * x * x):
                return x  # in the layer's wedge


_ZIGGURAT_NOR_R = 3.6541528853610087963519472518
_ZIGGURAT_NOR_INV_R = 0.27366123732975827203338247596
# numpy's ziggurat tables wi_double and fi_double, as little-endian doubles.
# fi depends on the libm that built it, and wi does not follow from r and v
# in double precision, so neither is computed here; ki, a layer's threshold
# on the 52-bit draw, follows from wi exactly.
_TABLES = base64.b64decode("""
edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPVTC1IMp88rbuO
JzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8dNMaYnUl
pTyWzgengJWlPOp+2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyY
z06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8MBYQbq20qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q
1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOu
PM6C+b06ya48JmLwhOcNrzyI9thU9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0
cZCGj7A8E2G8hH2vsDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEb
qLE8yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNouuGK7s7I8
U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv3ZmzPAM9uL87trM84B1W
mIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8NsNmnt96tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnO
tDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzT
jC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsmtwSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhh
Yti2PFT4YTHE87Y862iL9ycPtzzGFGlRjiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3
POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdq
RFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs
4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrNeMi6PDazi+G05bo8
GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1uzyiwC5rk9O7PIOugZvc8bs8oBbs
bEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENso
vTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl
/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEY
u66/PIXnL9Jg0788C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILA
PFSi6AiXlsA8xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsu
YEhkVcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASdvBPCPO7Tb3pH
LcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3uwjzurlbS7AvDPKOkaF57KsM8
oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM82uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOc
dWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY86moAe85T
xjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxa
d5R43I/KPLH9eDgfmMs8M60JgrQ7zTwAAAAAAADwP4fweclqRO8/FalsW1S37j938CfgET/uP5XeBKdv0+0/8rxXBpJw7T/cGaF4
SRTtP+stp6gzvew/f3ipzl5q7D/quu7ZHBvsP4Lc4U7rzus/UvWPOmWF6z8Q3TSCOj7rP6LobD8q+eo/BCV68f616j/hyVDVi3Tq
Pw+v9f2qNOo/2B9l7jv26T+BBiSNIrnpP8F6YVdGfek/R3obwpFC6T9PcTG98QjpP6gK5k9V0Og/At+6SK2Y6D+svDf862HoP27P
Vg8FLOg/y+IgS+325z9YaJx3msLnP9WwoDwDj+c/VthwBx9c5z8SbT/05SnnP+566rpQ+OY/iVpjnljH5j8qO1Fe95bmPyPjkion
Z+Y/GAxVmOI35j9lJoCYJAnmP2r/Sm/o2uU/iVzIrCmt5T+PjUwm5H/lP0aejfATU+U/1WxlWrUm5T9ntiDoxPrkP8BOSU8/z+Q/
eFLcciGk5D8SUN9faHnkP3k2SUoRT+Q/4181ihkl5D+CW1iZfvvjP6MxrxA+0uM/Ds1iplWp4z/VANorw4DjP+lQ9YuEWOM/NTpw
yZcw4z/vOGT9+gjjP+476lWs4eI/SpXXFKq64j8VzZOO8pPiP+0EBSmEbeI/hNuQWl1H4j/y9y+pfCHiPyCWkqng++E/aZlU/ofW
4T8R0T9XcbHhP1A8m3CbjOE/2jmGEgVo4T+cqV4QrUPhPzgfMUiSH+E/E1kyorP74D+gQkEQENjgP67ZcI2mtOA/gV2ZHXaR4D82
PPDMfW7gPy4/pq+8S+A/KoKL4TEp4D/EyriF3AbgP6G9e4x3yd8/ygCpp52F3z/zei/LKULfP5WPfnEa/94/VB+9IG683j/Fw05q
I3reP4WbX+o4ON4/CTp2R6323T+xVgsyf7XdPzPeJmStdN0/gBACoTY03T9tW660GfTcP0iowHNVtNw/x9cAu+h03D+4LB1v0jXc
PxdqYXwR99s/kW1x1qS42z8bEwd4i3rbP8oxs2LEPNs/UoWhnk7/2j+eWl86KcLaP4DYpEpThdo/TcAg6stI2j8+hEY5kgzaP9+T
Hl6l0Nk/xsAYhASV2T+Tn+DbrlnZPxfLM5ujHtk/FfG5/OHj2D+Ikd4/aanYP7ZarKg4b9g/2Q2qf0812D8R2bgRrfvXP7AU9K9Q
wtc/61KSrzmJ1z/tscdpZ1DXP0xhqTvZF9c/qkwSho7f1j8h3oithqfWP+LLJRrBb9Y/FeV7Nz041j/I0oB0+gDWP0TCdkP4ydU/
vu7WGTaT1T8AAT1ws1zVP+07U8JvJtU/km2/jmrw1D+inBBXo7rUP9RqrZ8ZhdQ//iTD78xP1D8ZejXRvBrUP9vSjtDo5dM/rkPx
fFCx0z95Ewho83zTP57R+SXRSNM/L/ZaTekU0z9mByF3O+HSP90/lj7HrdI/HrFNQYx60j+J3hcfikfSP57M93nAFNI/FoEY9i7i
0T9Q8MI51a/RP+hUVO2yfdE/Z+40u8dL0T8jJM9PExrRP8QJh1mV6NA/2kKyiE230D82Q5CPO4bQP9npQiJfVdA/fnTH9rck0D/F
k9+Ji+jPPzUyuIwQiM8/0pjpbP4nzz9EnMmkVMjOP908KLISac4/hHFFFjgKzj8KkMdVxKvNP09Rsvi2Tc0/zG9eig/wzD9T33GZ
zZLMP0ed2LfwNcw/oRi+enjZyz+qMYd6ZH3LPzrRzFK0Ics/BxhXomfGyj9+JhkLfmvKPz1+LTL3EMo/Wv7Sv9K2yT8nfGpfEF3J
P2n6dL+vA8k/W4GSkbCqyD84moGKElLIP3VxH2LV+cc/I6No0/ihxz+mtXqcfErHPxZHln5g88Y/XPIhPqScxj+c8a2iR0bGP/mD
+HZK8MU/bB3ziKyaxT81aMipbUXFP8Ef462N8MQ/Lc71bAycxD/VdQPC6UfEP64xaYsl9MM/7tfoqr+gwz+Iq7QFuE3DP2UqfIQO
+8I/Ggd6E8Oowj+3XoOi1VbCPzQ8GCVGBcI/Qn11khS0wT9jLajlQGPBP7luoh3LEsE/uglSPbPCwD+Fv7hL+XLAPyp9BlSdI8A/
LCJryz6pvz8cDlIp/wu/P0ulmvJ7b74/j+h2YbXTvT/lkb25qzi9Pwp0O0lfnrw/FRALaNAEvD8z4vJ4/2u7PzP2yuns07o/hmLq
M5k8uj8ZW53cBKa5P6ugpHUwELk/Uii/nRx7uD/W7z4Byua3P3YRqlo5U7c/TEppc2vAtj8YTYUkYS62P6RmdFcbnbU/riv6BpsM
tT8TIhtA4Xy0P4aaJiPv7bM/cD7Z5MVfsz8RMZvPZtKyP5EN3UTTRbI/fYmXvgy6sT+dF/LQFC+xPyWWFSztpLA/l+QwnpcbsD81
bmwrLCavP4FRskfVFq4/YvGt/i4JrT8sKigPPv2rP3BfOJAH86o/Y1Up+ZDqqT+rtWgq4OOoPx4nr3f73qc/ZNCYs+nbpj/UrfI8
stqlP10nEQ5d26Q/y+6YzvLdoz+X9D3ofOKiP7xqH58F6aE/EYCWLpjxoD/EpRjXgfifP3WMgtsaEp4/GgnNgxkwnD/46yJOn1Ka
PwrBALbReZg/gr8L9Nqllj9ksPvy6taUPxNeq404DZM/EjBgNANJkT9J3XJPKhWPP6yPTyeNpIs/eKSNDQRBiD/gzxpCluuEP5Iv
lSmSpYE/N2js+GDhfD9duAzZqJ52P/2xsAMfinA/Z7DBQ59fZT8P97m2BaZUPw==""")
_WI = struct.unpack("<256d", _TABLES[:2048])
_FI = struct.unpack("<256d", _TABLES[2048:])
# ki[i] is wi[i - 1] / wi[i] in units of 2**-52, with wi[-1] = wi[255]; every
# draw in layer 1 tests its wedge
_KI = tuple(0 if i == 1 else round(_WI[i - 1] / _WI[i] * 2**52) for i in range(256))
