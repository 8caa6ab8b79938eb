"""Numpy's ``Generator.standard_exponential()`` and ``.random()`` draws,
decoded in blocks from the raw 64-bit words of their PCG64 bit generator.

With ``r = w >> 11`` for a word ``w``:

- ``random()`` is ``r * 2**-53`` of one word.
- ``standard_exponential()`` is numpy's ziggurat
  (``random_standard_exponential`` in numpy's ``distributions.c``).  With
  ``idx = (w >> 3) & 0xFF`` it returns ``x = r * WE[idx]`` when
  ``r < KE[idx]``, for ~98% of words.  Otherwise it reads the next word's
  uniform ``u``: layer 0 returns ``EXP_R - log1p(-u)``; any other layer
  returns ``x`` when ``(FE[idx - 1] - FE[idx]) * u + FE[idx] < exp(-x)`` and
  starts over on the word after ``u`` when not.

``decode`` gives the draws that start at each word of a block: the fast path
with numpy, and the ~2% of words off it with ``math.exp`` and ``math.log1p``,
which numpy's ``exp`` and ``log1p`` do not always match bit for bit.  PCG64's
raw words are the part of numpy's random streams that numpy keeps stable, so
the decode reproduces the Generator's draws bit for bit for as long as the
tables below are numpy's.

The tables are the bytes of numpy 2.4.6's ``we_double``, ``ke_double`` and
``fe_double`` (256 little-endian values each, at ``.rodata`` offsets 0x1400,
0x1c00 and 0xc00 of ``src_distributions_distributions.c.o`` in the installed
``numpy/random/lib/libnpyrandom.a``), and ``EXP_R`` is its
``ziggurat_exp_r``.  Only ``Simulation._draw`` imports this module, so
``import cbnet`` does not load the tables.
"""

from __future__ import annotations

from math import exp, log1p

import numpy as np

#: ``ziggurat_exp_r``: where the tail of layer 0 begins
EXP_R = 7.69711747013105

#: ``we_double``: the width of each layer per unit of ``r``
WE = np.frombuffer(bytes.fromhex("""
    c15dbf94ec64d13c 19415d8b9d58603c 2b4d5b49b2d66a3c ba8d5ba93593713c
    732a4ae5e622753c 807ac2fb9050783c ccb779efd1387b3c 98bd6db7d8ec7d3c
    3c5cc649f03b803c 70f6d624db70813c 3326da900298823c ca6e3dfe88b3833c
    21fe0bc615c5843c c34a029df8cd853c bd2ba7f040cf863c 19d017dacdc9873c
    6f60d35459be883c d237225580ad893c 03525dbec8978a3c c4a3dddda57d8b3c
    893f8cd77b5f8c3c 367cf14da23d8d3c 5a73f17866188e3c aa4f5fcf0cf08e3c
    0932685dd2c48f3c 58756aed764b903c fc809b4748b3903c aff54987f319913c
    a0df4beb8c7f913c e7493ee926e4913c 2eff3865d247923c 0b6823e19eaa923c
    4bda26a59a0c933c 02826de2d26d933c a06221d153ce933c 486770ca282e943c
    12e7355f5c8d943c 930bcd6bf8eb943c 4d6f7829064a953c fdbeb83d8ea7953c
    cf2eddc79804963c e0680c6d2d61963c 44a9fa6253bd963c bb9079791119973c
    737907236e74973c 72817e7c6fcf973c 99d5fe531b2a983c ece12b2f7784983c
    2ac5d05088de983c 44a2fdbd5338993c 3813ad42de91993c bf03ff752ceb993c
    4a8814be42449a3c 61d29653259d9a3c c924f244d8f59a3c 9b974c795f4e9b3c
    898f3fb3bea69b3c 99fe5993f9fe9b3c 9fd2709a13579c3c db5ac22b10af9c3c
    fbe6f08ef2069d3c 8d6bd8f1bd5e9d3c 5790426a75b69d3c fe317cf71b0e9e3c
    4410cf83b4659e3c 621be2e541bd9e3c 9f9402e2c6149f3c b5fe572b466c9f3c
    a1a90465c2c39f3c d93c9a119f0da03c 62b10df65d39a03c f876721c1f65a03c
    72004bbbe390a03c 37017103adbca03c 662f7a207ce8a03c 15ac17395214a13c
    be7d706f3040a13c fb7f77e1176ca13c 96233da90998a13c 83523ddd06c4a13c
    e2c4a99010f0a13c 050eb1d3271ca23c 29a3c2b34d48a23c 9f18d03b8374a23c
    aacd8b74c9a0a23c 5d3ba56421cda23c 211703118cf9a23c 1176fb7c0a26a33c
    a11b8aaa9d52a33c f01a859a467fa33c fcefcf4c06aca33c 6d338dc0ddd8a33c
    c4094ff4cd05a43c d06c46e6d732a43c a76c7194fc5fa43c c483c8fc3c8da43c
    a4186b1d9abaa43c ea45cbf414e8a43c fb00d981ae15a53c f8b52cc46743a53c
    276f31bc4171a53c f99c4e6b3d9fa53c 359311d45bcda53c 26cf56fa9dfba53c
    2e1a73e3042aa63c 8c9b5c969158a63c eeebd31b4587a63c df3c8d7e20b6a63c
    08a659cb24e5a63c fba950115314a73c 1c04fa61ac43a73c 30d177d13173a73c
    0a24b176e4a2a73c f7177d6bc5d2a73c 7772ceccd502a83c 2ae6dfba1633a83c
    e70861598963a83c 540fa4cf2e94a83c 9460cc4808c5a83c 1315fef316f6a83c
    e1738e045c27a93c 8a8235b2d858a93c f4bb40398e8aa93c 5d03c7da7dbca93c
    51e9dddca8eea93c 2d59d08a1021aa3c 90c65635b653aa3c 0ff3d0329b86aa3c
    7a6581dfc0b9aa3c ffacca9d28edaa3c b58b6ed6d320ab3c 4225cff8c354ab3c
    b64f327bfa88ab3c 102607db78bdab3c 85fd2d9d40f2ab3c 2de0424e5327ac3c
    a4b1ea82b25cac3c fb2323d85f92ac3c 6ca595f35cc8ac3c 8071ed83abfeac3c
    adf230414d35ad3c fea31eed436cad3c 0aa58d5391a3ad3c 7f35d24a37dbad3c
    9b5026b43713ae3c 52a4167c944bae3c 7f23f49a4f84ae3c 78764a156bbdae3c
    68915bfce8f6ae3c 7fbca06ecb30af3c d05e5198146baf3c e5e1efb3c6a5af3c
    d809dd0ae4e0af3c d411f97a370eb03c 1b3911ef342cb03c a324929e6b4ab03c
    db2611cfdc68b03c 0fad3acf8987b03c 19c833f773a6b03c 6f9400a99cc5b03c
    b7cfef5005e5b03c ceef0b66af04b13c 4a15926a9c24b13c 2b3a6feccd44b13c
    c104c4854565b13c 9eae6fdd0486b13c 2078a2a70da7b13c 5a2a78a661c8b13c
    70339baa02eab13c a2f4f093f20bb23c 50e54f52332eb23c ba3b40e6c650b23c
    a6dac761af73b23c 2b5342e9ee96b23c 51db45b487bab23c 702d960e7cdeb23c
    65592659ce02b33c d0a72a0b8127b33c 65c93bb3964cb33c 56a88cf81172b33c
    4351349cf597b33c 838b8d7a44beb33c d0dead8c01e5b33c adeef5e92f0cb43c
    f842bdc9d233b43c 2cc91b85ed5bb43c 3294d3988384b43c 4ca15da798adb43c
    27b11c7b30d7b43c 0895b9084f01b53c b2aaac71f82bb53c 5aa7f8063157b53c
    61441b4cfd82b53c 07e138fa61afb53c 9ebd880364dcb53c 79180897080ab63c
    942e7b245538b63c 32f4c3604f67b63c ee48974afd96b63c 1e7b9a2f65c7b63c
    0725f4b18df8b63c 18d25cce7d2ab73c c371bde23c5db73c f9716bb5d290b73c
    d376147d47c5b73c 12146ee9a3fab73c c3bec02cf130b83c 427368063968b83c
    ab5b69ce85a0b83c 95363b82e2d9b83c 4475f3d25a14b93c 0e2afc34fb4fb93c
    d81a8df1d08cb93c ead9243aeacab93c 78f1493e560aba3c 3b4ce843254bba3c
    ea86adc2688dba3c c445d88233d1ba3c 0ab603c09916bb3c 0fea9150b15dbb3c
    5eda76d291a6bb3c 77ef4bde54f1bb3c a7e0c241163ebc3c f4c8c842f48cbc3c
    7fa9f2ec0fdebc3c c538276b8d31bd3c ec3bec6f9487bd3c 9ff14eaf50e0bd3c
    6009196ef23bbe3c c183f32aaf9abe3c 4aea5067c2fcbe3c a7f791976e62bf3c
    e5c6f643fecbbf3c 2eec62b3e21cc03c ef8ef58b1156c03c 4ea5cbcdc191c03c
    a0485d7831d0c03c a6924303a811c13c 2a4475677856c13c d6c2b3bc039fc13c
    7cfac9a0bcebc13c 9f9159b62b3dc23c a5aa49aef593c23c f011448ae3f0c23c
    5ef7cc27ee54c33c 61b8c8c74ec1c33c 6213e4669737c43c d15147cdd7b9c43c
    f673cf3cd84ac53c d21373e17aeec53c 72bf4b6d67aac63c 2fc6ead65087c73c
    19edf2e69f93c83c 857b480ddce9c93c fc71da519ec3cb3c 83bb7e29d9c9ce3c
"""), dtype="<f8")

#: ``ke_double``: ``r`` below this lies inside its layer's box
KE = np.frombuffer(bytes.fromhex("""
    c697242714521c00 0000000000000000 7e319cd75b7d1300 103c3f8ef56e1800
    aeb00e32b79b1a00 7c4419f727d11b00 1a65880f1d951c00 72395c2dfe1b1d00
    b2186bd55b7e1d00 702c17dd34c91d00 c89dacdf09041e00 3678d4717b331e00
    a2b77c178b5a1e00 6c046f09427b1e00 3eae08af0d971e00 9ef04eb1f5ae1e00
    5665b407bdc31e00 ce9987f0f6d51e00 88566eae14e61e00 d01c36ca6ef41e00
    a4d4dd764b011f00 b696a713e30c1f00 7af7f16963171f00 7025450cf2201f00
    74a85119ae291f00 3255b98fb1311f00 06c1575112391f00 4c696eebe23f1f00
    fa88d73233461f00 0e3a1dbf104c1f00 22335c4c87511f00 c0ecc309a1561f00
    969909d9665b1f00 8cd01082e05f1f00 725744dd14641f00 789685f609681f00
    e6022b2ac56b1f00 f4e4323d4b6f1f00 3af19071a0721f00 d6094d97c8751f00
    c05c041bc7781f00 f43f41129f7b1f00 8a9f0746537e1f00 3811e23be6801f00
    6291ad3d5a831f00 12b95660b1851f00 6242b289ed871f00 fa749375108a1f00
    ac393dba1b8c1f00 4ad045cc108e1f00 163e0102f18f1f00 e0588396bd911f00
    d8af47ac77931f00 da648b4f20951f00 92386378b8961f00 9288960c41981f00
    80ba46e1ba991f00 007f69bc269b1f00 7a711b56859c1f00 02d8cf59d79d1f00
    cea161671d9f1f00 c036091458a01f00 38333aeb87a11f00 fcc46b6fada21f00
    8206ce1ac9a31f00 a26aee5fdba41f00 7c094daae4a51f00 8267e45ee5a61f00
    c41ea5dcdda71f00 74a8e67ccea81f00 ee5fce93b7a91f00 58b8ad7099aa1f00
    3282585e74ab1f00 840574a348ac1f00 e89fbf8216ad1f00 c082573bdead1f00
    6c1df208a0ae1f00 7eb018245caf1f00 127a5bc212b01f00 f4df8116c4b01f00
    faf1b65070b11f00 3a96b29e17b21f00 4aa8df2bbab21f00 184e7f2158b31f00
    0cbec9a6f1b31f00 d6ac0ce186b41f00 fc93c7f317b51f00 aafdc500a5b51f00
    58fe37282eb61f00 0a01c988b3b61f00 9807b53f35b71f00 a87ddc68b3b71f00
    08bad61e2eb81f00 f647037ba5b81f00 740f9a9519b91f00 0472ba858ab91f00
    266f7961f8b91f00 86e2ee3d63ba1f00 16ec412fcbba1f00 4491b44830bb1f00
    e2a4ae9c92bb1f00 9e02c83cf2bb1f00 9429d2394fbc1f00 d440e1a3a9bc1f00
    9e8f548a01bd1f00 9c72defb56bd1f00 6ad68b06aabd1f00 403fcbb7fabd1f00
    de64731c49be1f00 5e69c94095be1f00 28b18630dfbe1f00 7461def626bf1f00
    e28a829e6cbf1f00 c404a931b0bf1f00 b0fd0fbaf1bf1f00 8845024131c01f00
    b2545bcf6ec01f00 26148b6daac01f00 8a699923e4c01f00 648a29f91bc11f00
    42197df551c11f00 4a0f771f86c11f00 b4749e7db8c11f00 42ea2016e9c11f00
    de05d5ee17c21f00 fe833c0d45c21f00 c24f867670c21f00 0e63902f9ac21f00
    4680e93cc2c21f00 b4c6d2a2e8c21f00 ec2241650dc31f00 0e9cde8730c31f00
    c67e0b0e52c31f00 f866dffa71c31f00 86282a5190c31f00 fa977413adc31f00
    48330144c8c31f00 40abcce4e1c31f00 a84d8ef7f9c31f00 6050b87d10c41f00
    68fd777825c41f00 c6bfb5e838c41f00 2a1115cf4ac41f00 e847f42b5bc41f00
    04456cff69c41f00 b201504977c41f00 b8fb2b0983c41f00 f67f453e8dc41f00
    1ad299e795c41f00 b030dd039dc41f00 32b47991a2c41f00 fc078e8ea6c41f00
    8cfbebf8a8c41f00 9eea16cea9c41f00 34fa410ba9c41f00 a0284eada6c41f00
    742ec8b0a2c41f00 e22de6119dc41f00 f42d85cc95c41f00 c05e26dc8cc41f00
    7a23ec3b82c41f00 e6de96e675c41f00 827e81d667c41f00 36c09d0558c41f00
    202e706d46c41f00 98cb0b0733c41f00 0e6e0dcb1dc41f00 f6bb96b106c41f00
    62cb48b2edc31f00 3c593ec4d2c31f00 b49105deb5c31f00 4c6199f596c31f00
    92455a0076c31f00 709306f352c31f00 1828b2c12dc31f00 8878bd5f06c31f00
    62f2cbbfdcc21f00 9e9fb9d3b0c21f00 f0fc8f8c82c21f00 64f179da51c21f00
    9ed3b6ac1ec21f00 56678cf1e8c11f00 3cbb3796b0c11f00 10cddc8675c11f00
    b6d674ae37c11f00 1424bbf6f6c01f00 a44d1848b3c01f00 f0af8b896cc01f00
    64f392a022c01f00 b8720f71d5bf1f00 8e4829dd84bf1f00 0ac62fc530bf1f00
    c60c7707d9be1f00 da7d32807dbe1f00 14a64b091ebe1f00 0844357ababd1f00
    26f8b9a752bd1f00 1a20c663e6bc1f00 e44d2c7d75bc1f00 aab763bfffbb1f00
    a2e63ff284bb1f00 8cd1a0d904bb1f00 ac701a357fba1f00 18b692bff3b91f00
    fcabd42e62b91f00 164a1733cab81f00 545b76762bb81f00 5c895b9c85b71f00
    9455d540d8b61f00 4269d9f722b61f00 e0376f4c65b51f00 d269bfbf9eb41f00
    46e703c8ceb31f00 3e9c53cff4b21f00 5228443210b21f00 04965a3e20b11f00
    c2e1423024b01f00 a679c4311baf1f00 04e1675704ae1f00 722dbf9ddeac1f00
    0a0640e6a8ab1f00 28ff99f361aa1f00 a2666f6508a91f00 3c8d50b39aa71f00
    14f2d12617a61f00 00ea8bd47ba41f00 94c0c593c6a21f00 14f37df4f4a01f00
    0abe6b33049f1f00 bcf9792bf19c1f00 c4ab1544b89a1f00 b82f785b55981f00
    783fd0abc3951f00 f2f1cea9fd921f00 1ce49adafc8f1f00 f885739eb98c1f00
    069647ec2a891f00 8edb04f945851f00 9a0336c3fd801f00 26e93978427c1f00
    cc2a58a300771f00 1c241a0f20711f00 2a35b734826a1f00 66e2a80000631f00
    c4e34f90665a1f00 7211ce4e72501f00 da6f5c66c7441f00 a2598aa3e5361f00
    0a34503414261f00 14047b043e111f00 e6cb57faaef61e00 1e1588a18cd31e00
    b02d121ea6a21e00 7c268bc761591e00 b00bac2bf6dd1d00 c0e8e4d94ddb1c00
"""), dtype="<u8")

#: ``fe_double``: ``exp(-x)`` at each layer's edge
FE = np.frombuffer(bytes.fromhex("""
    000000000000f03f 371188e54505ee3f f1ff8150a6d0ec3f 277beb7b00e5eb3f
    2a7fe60e0f21eb3f e7fa62a5ba76ea3f 9b6d551597dee93f 39aa55c43154e93f
    2fd2d376a3d4e83f b8c50678e85de83f 2631242d8aeee73f 7ed4099b6e85e73f
    634ba95bbb21e73f c6188449c3c2e63f 065c4f6dfa67e63f 66afa7c1ed10e63f
    75ac4c693dbde53f 7387da82986ce53f 9a897815ba1ee53f aff851c166d3e43f
    69e08efb6a8ae43f 25e1a8af9943e43f 808bb12bcbfee33f 14d1e144dcbbe33f
    d9dd08a7ad7ae33f 18630e45233be33f 5eda45e323fde23f 244f1fb698c0e23f
    bd3211116d85e23f a3508c228e4be23f c83e81baea12e23f 897b871973dbe13f
    253b1ec718a5e13f ee6fce6dce6fe13f 9c1633bc873be13f 8dc31c4a3908e13f
    2b1e2b81d8d5e03f 2ad054885ba4e03f 7d3bee31b973e03f 4865d2ebe843e03f
    24f360b1e214e03f 764521fe3dcddf3f fac5bf8e2d72df3f 4d42ebd18618df3f
    909d964b3dc0de3f 51d37d364569de3f fc37e1759313de3f 0c21a7881dbfdd3f
    7aedb97dd96bdd3f 0b1a7ee9bd19dd3f 92e040dcc1c8dc3f 60fb83d9dc78dc3f
    83a50ed0062adc3f b5eeae1238dcdb3f 880b9951698fdb3f 6f8054949343db3f
    5fef2834b0f8da3f e5f6fdd6b8aeda3f 4001a36aa765da3f f4217520761dda3f
    92375a691fd6d93f a87b09f29d8fd93f 10819a9fec49d93f 045d548c0605d93f
    395db704e7c0d83f 8c3fbc84897dd83f 386144b5e93ad83f 59ceb66903f9d73f
    1e80c69dd2b7d73f e3725e735377d73f ea8db0308237d73f 9d9e643e5bf8d63f
    9ce9e425dbb9d63f 9f0dc68ffe7bd63f e4274842c23ed63f 7658ef1f2302d63f
    6cee31261ec6d53f efa93a6cb08ad53f e7a3bd21d74fd53f f589de8d8f15d53f
    1df9260ed7dbd43f d3da8b15aba2d43f efbe802b096ad43f e24118ebee31d43f
    4ea130025afad33f 85b2ab3048c3d33f ef7db147b78cd33f ddd0fc28a556d33f
    352431c60f21d33f 70423920f5ebd23f 6222ae4653b7d23f 297645572883d23f
    fd76477d724fd23f ff7e0bf12f1cd23f db097bf75ee9d13f 5abc9ae1fdb6d13f
    8219190c0b85d13f ef91e2de8453d13f ba9fbacc6922d13f 6ca6d952b8f1d03f
    33538ff86ec1d03f 133ee94e8c91d03f d2905df00e62d03f 2c7c7980f532d03f
    6a4793ab3e04d03f 5493ff4cd2abcf3f 7e3e965ce74fcf3f 9be0e80fbaf4ce3f
    f2405900489ace3f a7832fd68e40ce3f 394f22488ce7cd3f b8eee31a3e8fcd3f
    fd31b420a237cd3f 9fd0f638b6e0cc3f 0218ce4f788acc3f eeafb95de634cc3f
    35443967fedfcb3f a5e4727cbe8bcb3f 3eefdcb82438cb3f 0b5beb422fe5ca3f
    493cc04bdc92ca3f bc5cdf0e2a41ca3f 12c5e4d116f0c93f 23163ee4a09fc93f
    a192e69ec64fc93f 79bb25648600c93f d562509fdeb1c83f f91a8cc4cd63c83f
    e6e794505216c83f ae1b85c86ac9c73f fe469fb9157dc73f 39281ab95131c73f
    ea84ee631de6c63f 28daa65e779bc63f acd130555e51c63f 316ab0fad007c63f
    b6c25409cebec53f f5782e425476c53f 498c076d622ec53f fab63c58f7e6c43f
    963098d811a0c43f c6cc2dc9b059c43f 9a6a380bd313c43f 05a9f88577cec33f
    c9d594269d89c33f af0cfadf4245c33f 6e7dbeaa6701c33f 34cf04850abec23f
    409960722a7bc23f 78e8bb7bc638c23f 65ca3dafddf6c13f 66d631206fb5c13f
    78aef0e67974c13f 2f71c920fd33c13f 2017eceff7f3c03f 2fb6547b69b4c03f
    bea5b7ee5075c03f 047f6e7aad36c03f 8deacba6fcf0bf3f 140419668575bf3f
    3cc383aef3fabe3f ccb98e044681be3f fbba61f57a08be3f 9893ad169190bd3f
    d74d91068719bd3f 57fd806b5ba3bc3f af102ef40c2ebc3f 8f2671579ab9bb3f
    486535540246bb3f 655465b143d3ba3f b738d93d5d61ba3f 28f446d04df0b93f
    706b33471480b93f b974e588af10b93f 3b535a831ea2b83f bac43b2c6034b83f
    f3a6d78073c7b73f 1e3c1986575bb73f b61684480bf0b63f 20b630dc8d85b63f
    f7deca5cde1bb63f 3ebb91edfbb2b53f 36d059b9e54ab53f 29d990f29ae3b43f
    5c9843d31a7db43f 0eb1259d6417b43f 9e9f9b9977b2b33f 18e7c619534eb33f
    d18d9476f6eab23f 7005ce106188b23f 8c9d2c519226b23f 40a36fa889c5b13f
    9253758f4665b13f 50ca5687c805b13f 3b1b87190fa7b03f 17c8f5d71949b03f
    769669bad0d7af3f 34e84499f41eaf3f e5b22ea59e67ae3f 10583149ceb1ad3f
    4a791e0383fdac3f e9210764bc4aac3f 85d9be107a99ab3f 84806ac2bbe9aa3f
    38f11b47813baa3f 4c7c7b82ca8ea93f 6d77806e97e3a83f 6b393a1ce839a83f
    9e08abb4bc91a73f 52afb67915eba63f 41a026c7f245a63f cad2c51355a2a53f
    ebc596f23c00a53f 196b2614ab5fa43f ff18ff47a0c0a33f ae143f7e1d23a33f
    0cc056c92387a23f d412f35fb4eca13f a1b3199fd053a13f 51d67c0c7abca03f
    eefa0d59b226a03f 9098afc7f6249f3f 6874517aaeff9d3f 0c1b335490dd9c3f
    7058fa50a1be9b3f 9b4e92e6e6a29a3f 482a130f678a993f 6799ec532875983f
    96fc87da3163973f 7740a2728b54963f 5102aba63d49953f bef087ce5141943f
    845d3125d23c933f 323ab9e1c93b923f 5f5f7254453e913f f0021e095244903f
    cec789defd9b8e3f 57276e14b9b68c3f 2dc94255fad88a3f bda78f68ea02893f
    f574aae6b634873f cb16e40b936e853f 626f51c1b8b0833f 7176b3ed69fb813f
    f9d75f29f24e803f c55d74fa51577d3f 364897d4e9237a3f 2036ec379f04773f
    fd22e3ce97fa733f 434057693d07713f 114bcd81b3586c3f fffea1f388d8663f
    24a3e1a86b94613f 253e0c54b52b593f b9fc8df70ab24f3f 4b0b9f321cc33d3f
"""), dtype="<f8")


def decode(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws that start at each of the words ``raw``: ``(exp, after, uni)``.

    ``exp[i]`` is the exponential draw that starts at word i, ``after[i]``
    the word after it, and ``uni[i]`` word i's uniform draw.  ``exp`` and
    ``after`` hold two items more than ``raw``, and where a draw needs words
    past ``raw``, as on those two, ``after`` is ``len(raw) + 1``.
    """
    n = raw.size
    r = raw >> 11
    idx = (raw >> 3 & 0xFF).view(np.intp)  # numpy gathers fastest with intp
    slow = (r >= KE[idx]).nonzero()[0]
    uni = r.astype(np.float64)
    e = np.zeros(n + 2)
    np.multiply(uni, WE[idx], out=e[:n])
    uni *= 2.0**-53
    after = np.arange(1, n + 3)
    after[n:] = n + 1
    after[slow] = n + 1
    slow = slow[slow < n - 1]  # the last word has no uniform after it
    after[slow] = slow + 2
    k, u = idx[slow], uni[slow + 1]
    tail = k == 0
    e[slow[tail]] = [EXP_R - log1p(-v) for v in u[tail].tolist()]
    slow, k, u = slow[~tail], k[~tail], u[~tail]
    wedge = [exp(-v) for v in e[slow].tolist()]
    reject = slow[(FE[k - 1] - FE[k]) * u + FE[k] >= wedge]
    # a reject starts over two words on, so its draw is the first one ahead
    # of it, in steps of two words, that is not a reject
    is_reject = np.zeros(n + 2, dtype=bool)
    is_reject[reject] = True
    to = reject + 2
    while (again := is_reject[to]).any():
        to[again] += 2
    e[reject], after[reject] = e[to], after[to]
    return e, after, uni
