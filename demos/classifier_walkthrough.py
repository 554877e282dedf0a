"""Supervised optimum-path forest classification on interleaved half-moons.

Fits the classifier, reports test accuracy and minority recall, inspects the
MST-elected prototypes, and round-trips the model through its JSON
serialization.
"""

import numpy as np

from opfsample import OpfClassifier, score

rng = np.random.default_rng(11)


def moons(n, noise=0.15):
    t = rng.uniform(0, np.pi, size=n)
    upper = np.c_[np.cos(t), np.sin(t)] + rng.normal(0, noise, size=(n, 2))
    lower = np.c_[1 - np.cos(t), 0.4 - np.sin(t)] + rng.normal(0, noise, size=(n, 2))
    X = np.vstack([upper, lower])
    y = np.r_[np.zeros(n, dtype=int), np.ones(n, dtype=int)]
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


X_train, y_train = moons(80)
X_test, y_test = moons(40)

model = OpfClassifier().fit(X_train, y_train)
print(f"trained on {len(y_train)} samples; {len(model.prototypes_)} prototypes")
print(f"prototype labels: {model.assigned_label_[model.prototypes_].tolist()}")
print(f"training-set predictions correct: {(model.predict_batch(X_train) == y_train).all()}")

pred = model.predict_batch(X_test)
s = score(y_test, pred, minority=1)
print(f"test recall {s.recall:.3f}  accuracy {s.accuracy:.3f}  f1 {s.f1:.3f}")

blob = model.to_json()
clone = OpfClassifier.from_json(blob)
assert (clone.predict_batch(X_test) == pred).all()
print(f"serialized model: {len(blob)} bytes, round-trip predictions identical")

# single-sample prediction is a batch of one
probe = np.array([0.5, 0.25])
print(f"probe {probe.tolist()} -> class {model.predict(probe)}")
