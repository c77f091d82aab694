package cbc

// Test hooks: what a test driving a corrupted party needs from inside the
// package.

// SignedStatement is the string a certificate for (instance, digest) signs.
func SignedStatement(instance string, digest [32]byte) []byte {
	return signedStatement(instance, digest)
}

// CertBody is the body of FINAL and REQ; AnsBody that of ANS.
type (
	CertBody = certBody
	AnsBody  = ansBody
)
